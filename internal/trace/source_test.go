package trace

import (
	"bytes"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sourceDataset is a small hand-built trace exercising answers, retries,
// and several clients.
func sourceDataset() *Dataset {
	addr := netip.MustParseAddr
	return &Dataset{
		DNS: []DNSRecord{
			{
				QueryTS: 1 * time.Second, TS: 1010 * time.Millisecond,
				Client: addr("10.0.0.1"), Resolver: addr("192.168.1.1"),
				ID: 1, Query: "a.example", QType: 1,
				Answers: []Answer{{Addr: addr("198.51.100.7"), TTL: 60 * time.Second}},
			},
			{
				QueryTS: 2 * time.Second, TS: 2300 * time.Millisecond,
				Client: addr("10.0.0.2"), Resolver: addr("192.168.1.1"),
				ID: 2, Query: "b.example", QType: 1, Retries: 1, TC: true,
				Answers: []Answer{
					{Addr: addr("198.51.100.8"), TTL: 300 * time.Second},
					{Addr: addr("198.51.100.9"), TTL: 300 * time.Second},
				},
			},
			{
				QueryTS: 3 * time.Second, TS: 3050 * time.Millisecond,
				Client: addr("10.0.0.1"), Resolver: addr("8.8.8.8"),
				ID: 3, Query: "c.example", QType: 28, RCode: 2,
			},
		},
		Conns: []ConnRecord{
			{TS: 1500 * time.Millisecond, Duration: time.Second, Proto: TCP,
				Orig: addr("10.0.0.1"), OrigPort: 40001, Resp: addr("198.51.100.7"), RespPort: 443,
				OrigBytes: 120, RespBytes: 4096},
			{TS: 2400 * time.Millisecond, Duration: 2 * time.Second, Proto: TCP,
				Orig: addr("10.0.0.2"), OrigPort: 40002, Resp: addr("198.51.100.8"), RespPort: 80,
				OrigBytes: 64, RespBytes: 512},
		},
	}
}

// drain collects everything a source yields.
func drain(t *testing.T, src Source) *Dataset {
	t.Helper()
	var got Dataset
	if err := src.StreamDNS(func(d *DNSRecord) error {
		cp := *d
		cp.Answers = append([]Answer(nil), d.Answers...)
		got.DNS = append(got.DNS, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := src.StreamConns(func(c *ConnRecord) error {
		got.Conns = append(got.Conns, *c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return &got
}

// roundTrip is the dataset as it survives TSV serialization — the
// reference for scanner-backed sources, which see the file's (possibly
// quantized) representation rather than the original structs.
func roundTrip(t *testing.T, ds *Dataset) *Dataset {
	t.Helper()
	var dnsBuf, connBuf bytes.Buffer
	if err := WriteDNS(&dnsBuf, ds.DNS); err != nil {
		t.Fatal(err)
	}
	if err := WriteConns(&connBuf, ds.Conns); err != nil {
		t.Fatal(err)
	}
	return drain(t, NewScannerSource(&dnsBuf, &connBuf, Strict()))
}

func TestDatasetSourceStreamsInTimeOrder(t *testing.T) {
	ds := sourceDataset()
	// Shuffle so the source's own sort is what produces the order.
	ds.DNS[0], ds.DNS[2] = ds.DNS[2], ds.DNS[0]
	ds.Conns[0], ds.Conns[1] = ds.Conns[1], ds.Conns[0]
	got := drain(t, NewDatasetSource(ds))
	for i := 1; i < len(got.DNS); i++ {
		if got.DNS[i].TS < got.DNS[i-1].TS {
			t.Fatal("DNS stream out of order")
		}
	}
	for i := 1; i < len(got.Conns); i++ {
		if got.Conns[i].TS < got.Conns[i-1].TS {
			t.Fatal("connection stream out of order")
		}
	}
	if len(got.DNS) != 3 || len(got.Conns) != 2 {
		t.Fatalf("drained %d DNS / %d conns, want 3 / 2", len(got.DNS), len(got.Conns))
	}
}

func TestScannerSourceMatchesDataset(t *testing.T) {
	ds := sourceDataset()
	want := roundTrip(t, ds)
	var dnsBuf, connBuf bytes.Buffer
	if err := WriteDNS(&dnsBuf, ds.DNS); err != nil {
		t.Fatal(err)
	}
	if err := WriteConns(&connBuf, ds.Conns); err != nil {
		t.Fatal(err)
	}
	got := drain(t, NewScannerSource(&dnsBuf, &connBuf, Strict()))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scanner source drained\n%+v\nwant\n%+v", got, want)
	}
}

// TestDirSourceConcatenatesPartitions checks a directory of
// time-partitioned trace files streams as the concatenation of its
// partitions in name order, matching a single-file scan of the same
// records, and that the source is re-scannable.
func TestDirSourceConcatenatesPartitions(t *testing.T) {
	ds := sourceDataset()
	want := roundTrip(t, ds)
	dir := t.TempDir()
	writeFile := func(name string, fn func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Two partitions per stream, split at the natural time boundary so
	// lexicographic name order equals time order.
	writeFile("part-000.dns.tsv", func(b *bytes.Buffer) error { return WriteDNS(b, ds.DNS[:2]) })
	writeFile("part-001.dns.tsv", func(b *bytes.Buffer) error { return WriteDNS(b, ds.DNS[2:]) })
	writeFile("part-000.conn.tsv", func(b *bytes.Buffer) error { return WriteConns(b, ds.Conns[:1]) })
	writeFile("part-001.conn.tsv", func(b *bytes.Buffer) error { return WriteConns(b, ds.Conns[1:]) })
	// An unrelated file the source must ignore.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("notes\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	src := NewDirSource(dir, Strict())
	for pass := 0; pass < 2; pass++ {
		got := drain(t, src)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pass %d: dir source drained\n%+v\nwant\n%+v", pass, got, want)
		}
	}
}

func TestDirSourceEmptyDirErrors(t *testing.T) {
	src := NewDirSource(t.TempDir(), Strict())
	err := src.StreamDNS(func(*DNSRecord) error { return nil })
	if err == nil {
		t.Fatal("empty directory streamed without error")
	}
}

// TestDirSourceAnnotatesFileErrors checks a parse error inside one
// partition reports which file it came from.
func TestDirSourceAnnotatesFileErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.dns.tsv"), []byte("not\ta\tvalid\trecord\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewDirSource(dir, Strict())
	err := src.StreamDNS(func(*DNSRecord) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "bad.dns.tsv") {
		t.Fatalf("error %v does not name the failing file", err)
	}
}

// TestSourceYieldErrorPropagates checks a yield error aborts the stream
// and surfaces verbatim from every source implementation.
// TestDirSourceQuarantineNamesFile: a malformed line in the second of
// two partitions reaches the sink with the cause naming that file, and
// a budget trip there names it too.
func TestDirSourceQuarantineNamesFile(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := WriteDNS(&buf, sourceDataset().DNS); err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, "part-001.dns.tsv")
	for path, body := range map[string]string{
		filepath.Join(dir, "part-000.dns.tsv"): buf.String(),
		second:                                 buf.String() + "garbage\n",
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantLine := strings.Count(buf.String(), "\n") + 1
	for _, workers := range []int{1, 2} {
		var sunk []Quarantined
		p := QuarantineAll()
		p.Sink = func(q Quarantined) { sunk = append(sunk, q) }
		src := NewDirSource(dir, p)
		src.SetIngestWorkers(workers)
		if err := src.StreamDNS(func(*DNSRecord) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if len(sunk) != 1 || sunk[0].Line != wantLine || sunk[0].Text != "garbage" ||
			!strings.HasPrefix(sunk[0].Err.Error(), second+": ") {
			t.Fatalf("workers=%d: sink got %+v, want line %d of %s", workers, sunk, wantLine, second)
		}

		src = NewDirSource(dir, QuarantineBudget(0, 0))
		src.SetIngestWorkers(workers)
		err := src.StreamDNS(func(*DNSRecord) error { return nil })
		if !errors.Is(err, ErrBudgetExceeded) || !strings.HasPrefix(err.Error(), second+": ") {
			t.Fatalf("workers=%d: budget trip %v does not name %s", workers, err, second)
		}
	}
}

func TestSourceYieldErrorPropagates(t *testing.T) {
	ds := sourceDataset()
	sentinel := errors.New("stop")
	var dnsBuf, connBuf bytes.Buffer
	if err := WriteDNS(&dnsBuf, ds.DNS); err != nil {
		t.Fatal(err)
	}
	if err := WriteConns(&connBuf, ds.Conns); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]Source{
		"dataset": NewDatasetSource(ds),
		"scanner": NewScannerSource(&dnsBuf, &connBuf, Strict()),
	} {
		n := 0
		err := src.StreamDNS(func(*DNSRecord) error {
			n++
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: yield error %v, want %v", name, err, sentinel)
		}
		if n != 1 {
			t.Errorf("%s: %d yields after abort, want 1", name, n)
		}
	}
}
