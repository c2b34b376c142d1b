package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Source is a stream of the two trace datasets. It is the input side of
// the out-of-core analysis path: where the in-memory pipeline demands a
// fully resident *Dataset, a Source yields one record at a time, so the
// analyzer can run in bounded memory over traces far larger than RAM.
//
// The contract every implementation must honor:
//
//   - StreamDNS yields DNS records in nondecreasing response-time (TS)
//     order; StreamConns yields connection summaries in nondecreasing
//     start-time order. This matches the order Dataset.SortByTime
//     establishes, which every analysis pass assumes. The analyzer
//     verifies the order and fails fast on violations rather than
//     silently misclassifying.
//   - The record pointer passed to yield is only valid for the duration
//     of the call; consumers copy what they keep.
//   - A Source may be one-shot (a ScannerSource consumes its readers).
//     The analyzer scans each stream exactly once, DNS first.
//
// Implementations in this package: DatasetSource (an in-memory Dataset),
// ScannerSource (a streaming TSV reader pair), and DirSource (a
// directory of time-partitioned trace files).
type Source interface {
	// StreamDNS invokes yield for every DNS record, in nondecreasing TS
	// order. A non-nil error from yield aborts the stream and is
	// returned verbatim.
	StreamDNS(yield func(*DNSRecord) error) error
	// StreamConns is StreamDNS for connection summaries.
	StreamConns(yield func(*ConnRecord) error) error
}

// DatasetSource adapts an in-memory Dataset to the Source interface.
// The dataset is time-sorted in place on first use, exactly as the
// in-memory analysis path would.
type DatasetSource struct {
	DS *Dataset
}

// NewDatasetSource returns a Source over ds.
func NewDatasetSource(ds *Dataset) *DatasetSource { return &DatasetSource{DS: ds} }

// StreamDNS implements Source.
func (s *DatasetSource) StreamDNS(yield func(*DNSRecord) error) error {
	s.DS.SortByTime() // early-outs when already sorted
	for i := range s.DS.DNS {
		if err := yield(&s.DS.DNS[i]); err != nil {
			return err
		}
	}
	return nil
}

// StreamConns implements Source.
func (s *DatasetSource) StreamConns(yield func(*ConnRecord) error) error {
	s.DS.SortByTime()
	for i := range s.DS.Conns {
		if err := yield(&s.DS.Conns[i]); err != nil {
			return err
		}
	}
	return nil
}

// ScannerSource streams the two Bro-style TSV logs through the chunked
// reader (chunked.go). It is one-shot: the readers are consumed by the
// first scan. The ErrorPolicy applies to each stream on its own: each
// has its own budget.
type ScannerSource struct {
	dns     io.Reader
	conns   io.Reader
	policy  ErrorPolicy
	workers int
}

// NewScannerSource returns a Source reading DNS records from dns and
// connection summaries from conns under the given error policy. The
// caller retains ownership of the readers (and closes any files).
func NewScannerSource(dns, conns io.Reader, policy ErrorPolicy) *ScannerSource {
	return &ScannerSource{dns: dns, conns: conns, policy: policy}
}

// SetIngestWorkers selects how many goroutines parse the TSV streams:
// n when positive, one per CPU for zero (the default), one when
// negative. The record sequence, quarantine decisions, budget trip
// points, and errors are bit-identical at every width — only the wall
// clock moves.
func (s *ScannerSource) SetIngestWorkers(n int) { s.workers = n }

// StreamDNS implements Source.
func (s *ScannerSource) StreamDNS(yield func(*DNSRecord) error) error {
	return scanChunkedDNS(s.dns, s.workers, s.policy, yield)
}

// StreamConns implements Source.
func (s *ScannerSource) StreamConns(yield func(*ConnRecord) error) error {
	return scanChunkedConns(s.conns, s.workers, s.policy, yield)
}

// Dataset reads both logs whole into a resident Dataset, DNS first, at
// the source's ingest width and under its error policy, copying each
// stream's records once into an exact-length slice. Unlike an analysis
// of the streams it needs no time order: the resident analysis sorts.
// It consumes the readers as a scan does; on any error it returns a nil
// Dataset.
func (s *ScannerSource) Dataset() (*Dataset, error) {
	dns, err := readChunked(s.dns, s.workers, s.policy, parseDNSLineBytes)
	if err != nil {
		return nil, err
	}
	conns, err := readChunked(s.conns, s.workers, s.policy, parseConnLineBytes)
	if err != nil {
		return nil, err
	}
	return &Dataset{DNS: dns, Conns: conns}, nil
}

// DirSource streams a directory of time-partitioned trace files: the
// shape a long capture naturally lands in (one file pair per hour or
// day). Files ending in ".dns.tsv" or ".dns.log" form the DNS stream
// and files ending in ".conn.tsv" or ".conn.log" form the connection
// stream; each stream's files are concatenated in lexicographic name
// order, so naming partitions with a sortable timestamp or sequence
// prefix (2019-02-06T00.dns.tsv, part-000.conn.tsv, ...) yields a
// correctly ordered stream. Unlike ScannerSource, a DirSource is
// re-scannable: it opens and closes the files itself on every pass.
type DirSource struct {
	dir     string
	policy  ErrorPolicy
	workers int
}

// NewDirSource returns a Source over the partitioned trace files in dir.
func NewDirSource(dir string, policy ErrorPolicy) *DirSource {
	return &DirSource{dir: dir, policy: policy}
}

// SetIngestWorkers selects how many goroutines parse each partition
// file; see ScannerSource.SetIngestWorkers. Files are still consumed
// one at a time in name order, so the concatenated stream is unchanged.
func (s *DirSource) SetIngestWorkers(n int) { s.workers = n }

// partitionFiles lists dir's files carrying one of the given suffixes,
// sorted by name.
func (s *DirSource) partitionFiles(suffixes ...string) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		for _, suf := range suffixes {
			if strings.HasSuffix(e.Name(), suf) {
				files = append(files, filepath.Join(s.dir, e.Name()))
				break
			}
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("trace: no %s partitions in %s", strings.TrimPrefix(suffixes[0], "."), s.dir)
	}
	return files, nil
}

// StreamDNS implements Source.
func (s *DirSource) StreamDNS(yield func(*DNSRecord) error) error {
	return s.streamFiles([]string{".dns.tsv", ".dns.log"}, func(f *os.File, policy ErrorPolicy) error {
		return scanChunkedDNS(f, s.workers, policy, yield)
	})
}

// StreamConns implements Source.
func (s *DirSource) StreamConns(yield func(*ConnRecord) error) error {
	return s.streamFiles([]string{".conn.tsv", ".conn.log"}, func(f *os.File, policy ErrorPolicy) error {
		return scanChunkedConns(f, s.workers, policy, yield)
	})
}

// streamFiles scans the partitions carrying one of the suffixes in name
// order, each under the source's policy with its own budget. Both a
// file's terminal error and each line it quarantines name the file,
// since a multi-file stream would otherwise report bare line numbers.
func (s *DirSource) streamFiles(suffixes []string, scan func(*os.File, ErrorPolicy) error) error {
	files, err := s.partitionFiles(suffixes...)
	if err != nil {
		return err
	}
	for _, path := range files {
		if err := streamFile(path, s.policy, scan); err != nil {
			return err
		}
	}
	return nil
}

// streamFile opens path and scans it; see streamFiles.
func streamFile(path string, policy ErrorPolicy, scan func(*os.File, ErrorPolicy) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if sink := policy.Sink; sink != nil {
		policy.Sink = func(q Quarantined) {
			q.Err = fmt.Errorf("%s: %w", path, q.Err)
			sink(q)
		}
	}
	if err := scan(f, policy); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
