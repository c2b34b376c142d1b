package main

import (
	"bytes"
	"errors"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnscontext"
)

// writeDirtyLogs writes a small generated window's two logs into dir,
// with malformed lines injected after the header of each: two into the
// DNS log (lines 2 and 3) and one into the connection log (line 2).
func writeDirtyLogs(t *testing.T, dir string) (dnsPath, connPath string, nDNS, nConns int) {
	t.Helper()
	cfg := dnscontext.SmallGeneratorConfig(3)
	ds, _, err := dnscontext.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, bad []string, enc func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatal(err)
		}
		header, body, _ := strings.Cut(buf.String(), "\n")
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(header+"\n"+strings.Join(bad, "\n")+"\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dnsPath = write("d.log", []string{"garbage", "not\ta\trecord"},
		func(b *bytes.Buffer) error { return dnscontext.WriteDNS(b, ds.DNS) })
	connPath = write("c.log", []string{"broken\tline"},
		func(b *bytes.Buffer) error { return dnscontext.WriteConns(b, ds.Conns) })
	return dnsPath, connPath, len(ds.DNS), len(ds.Conns)
}

// TestLoadTSVQuarantineCounters: the resident -quarantine load logs
// each diverted line with its own file, and exports per-stream record
// and quarantine counters, at one parse worker and at several.
func TestLoadTSVQuarantineCounters(t *testing.T) {
	dnsPath, connPath, nDNS, nConns := writeDirtyLogs(t, t.TempDir())
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	for _, workers := range []int{1, 2} {
		logged.Reset()
		reg := dnscontext.NewMetricsRegistry()
		ds, err := loadTSV(dnsPath, connPath, dnscontext.QuarantineAll(), workers, reg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.DNS) != nDNS || len(ds.Conns) != nConns {
			t.Fatalf("workers=%d: loaded %d/%d records, want %d/%d", workers, len(ds.DNS), len(ds.Conns), nDNS, nConns)
		}
		for _, want := range []string{
			"quarantined " + dnsPath + ":2: ",
			"quarantined " + dnsPath + ":3: ",
			"quarantined " + connPath + ":2: ",
		} {
			if !strings.Contains(logged.String(), want) {
				t.Fatalf("workers=%d: log lacks %q:\n%s", workers, want, logged.String())
			}
		}
		got := map[string]float64{}
		for _, fam := range reg.Snapshot().Families {
			for _, m := range fam.Metrics {
				got[fam.Name+"/"+m.Labels[0].Value] = m.Value
			}
		}
		want := map[string]float64{
			"dnsctx_trace_records_total/dns":      float64(nDNS),
			"dnsctx_trace_records_total/conn":     float64(nConns),
			"dnsctx_trace_quarantined_total/dns":  2,
			"dnsctx_trace_quarantined_total/conn": 1,
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("workers=%d: %s = %v, want %v (all: %v)", workers, k, got[k], v, got)
			}
		}
	}
}

// TestLoadTSVNamesFailingFile: a failed load is reported against the
// log that failed, the DNS or the connection log.
func TestLoadTSVNamesFailingFile(t *testing.T) {
	dnsPath, connPath, _, _ := writeDirtyLogs(t, t.TempDir())
	log.SetOutput(&bytes.Buffer{})
	defer log.SetOutput(os.Stderr)
	ds, err := loadTSV(dnsPath, connPath, dnscontext.QuarantineBudget(1, 0), 2, nil)
	if ds != nil || !errors.Is(err, dnscontext.ErrBudgetExceeded) || !strings.HasPrefix(err.Error(), dnsPath+": ") {
		t.Fatalf("load = (%v, %v), want a budget trip naming %s", ds, err, dnsPath)
	}
	ds, err = loadTSV(dnsPath, connPath, dnscontext.QuarantineBudget(2, 0), 2, nil)
	if err != nil || ds == nil {
		t.Fatalf("budget 2: load = (%v, %v)", ds, err)
	}
	if _, err := loadTSV(dnsPath, connPath, dnscontext.StrictPolicy(), 1, nil); err == nil ||
		!strings.HasPrefix(err.Error(), dnsPath+": ") {
		t.Fatalf("strict load error %v does not name %s", err, dnsPath)
	}
	if err := os.WriteFile(dnsPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTSV(dnsPath, connPath, dnscontext.QuarantineBudget(0, 0), 1, nil); err == nil ||
		!strings.HasPrefix(err.Error(), connPath+": ") {
		t.Fatalf("conn budget trip %v does not name %s", err, connPath)
	}
}
