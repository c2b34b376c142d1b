package main

import (
	"bufio"
	"context"
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"dnscontext"
)

// pins.txt pins the pipeline outputs. A "generate g" line holds the
// SHA-256 prefix of the TSV bytes (dns then conn log) of generator seed
// g's 50-house day; an "analyze s" line holds that of seed s's analyze
// trace and its Analysis.Digest. `perfbench --pin 0-100` regenerates the
// lines for seeds 0-100.
//
//go:embed pins.txt
var pinsText string

type analyzePin struct {
	tsv    string
	digest uint64
}

type pinTable struct {
	generate map[uint64]string // by generator seed
	analyze  map[uint64]analyzePin
}

var pins = sync.OnceValue(func() pinTable {
	pt := pinTable{generate: make(map[uint64]string), analyze: make(map[uint64]analyzePin)}
	sc := bufio.NewScanner(strings.NewReader(pinsText))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		bad := len(f) < 3
		var seed, digest uint64
		if !bad {
			var err error
			seed, err = strconv.ParseUint(f[1], 10, 64)
			bad = err != nil
		}
		switch {
		case !bad && f[0] == "generate" && len(f) == 3:
			pt.generate[seed] = f[2]
		case !bad && f[0] == "analyze" && len(f) == 4:
			var err error
			digest, err = strconv.ParseUint(f[3], 16, 64)
			bad = err != nil
			pt.analyze[seed] = analyzePin{tsv: f[2], digest: digest}
		default:
			bad = true
		}
		if bad {
			panic(fmt.Sprintf("pins.txt: malformed line %q", sc.Text()))
		}
	}
	return pt
})

// printPins prints pins.txt lines for the seeds lo-hi.
func printPins(spec string) error {
	loS, hiS, _ := strings.Cut(spec, "-")
	if hiS == "" {
		hiS = loS
	}
	lo, err1 := strconv.ParseUint(loS, 10, 64)
	hi, err2 := strconv.ParseUint(hiS, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("bad --pin range %q, want lo-hi", spec)
	}
	dir := filepath.Join(".bench_build", "work", "pin-"+spec)
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dnsPath, connPath := filepath.Join(dir, "dns.tsv"), filepath.Join(dir, "conn.tsv")
	hashTrace := func(ds *dnscontext.Dataset) (string, error) {
		if _, err := writeTrace(ds, dnsPath, connPath, nil, -1, nil); err != nil {
			return "", err
		}
		return hashFiles(dnsPath, connPath)
	}
	// Generator seeds: the generate rotations of seeds lo-hi, and the
	// analyze workloads' seeds lo-hi themselves.
	gens := make(map[uint64]bool)
	for s := lo; s <= hi; s++ {
		gens[s] = true
		for i := 0; i < generateRotation; i++ {
			gens[generateSeed(s, i)] = true
		}
	}
	for g := uint64(0); g <= generateSeed(hi, generateRotation-1); g++ {
		if !gens[g] {
			continue
		}
		ds, _, err := dnscontext.Generate(generatorConfig(g))
		if err != nil {
			return err
		}
		if g >= generateSeed(lo, 0) {
			h, err := hashTrace(ds)
			if err != nil {
				return err
			}
			fmt.Printf("generate %d %s\n", g, h)
		}
		if g < lo || g > hi {
			continue
		}
		cutTrace(ds, analyzeRecords)
		h, err := hashTrace(ds)
		if err != nil {
			return err
		}
		rd := &dnscontext.Dataset{}
		if rd.DNS, err = readFile(dnsPath, dnscontext.ReadDNS); err != nil {
			return err
		}
		if rd.Conns, err = readFile(connPath, dnscontext.ReadConns); err != nil {
			return err
		}
		a, err := dnscontext.NewAnalyzer(dnscontext.WithWorkers(runtime.NumCPU())).AnalyzeContext(context.Background(), rd)
		if err != nil {
			return err
		}
		fmt.Printf("analyze %d %s %016x\n", g, h, a.Digest())
	}
	return nil
}
