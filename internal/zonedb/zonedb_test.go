package zonedb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dnscontext/internal/stats"
)

func newDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := New(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumNames: 0, ZipfExponent: 1}, stats.NewRNG(1)); err == nil {
		t.Fatal("zero NumNames accepted")
	}
	if _, err := New(Config{NumNames: 5, ZipfExponent: 0}, stats.NewRNG(1)); err == nil {
		t.Fatal("zero exponent accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{NumNames: 500, ZipfExponent: 1, CDNFraction: 0.3, CDNPoolSize: 20}
	a, _ := New(cfg, stats.NewRNG(7))
	b, _ := New(cfg, stats.NewRNG(7))
	for i := range a.Names() {
		x, y := a.ByRank(i), b.ByRank(i)
		if x.Host != y.Host || x.TTL != y.TTL || x.Addrs[0] != y.Addrs[0] || x.AuthDelay != y.AuthDelay {
			t.Fatalf("rank %d differs between same-seed builds", i)
		}
	}
}

func TestUniverseShape(t *testing.T) {
	db := newDB(t, DefaultConfig())
	if db.Size() != 20000 {
		t.Fatalf("size %d", db.Size())
	}
	hosts := make(map[string]bool)
	cdn := 0
	for _, n := range db.Names() {
		if hosts[n.Host] {
			t.Fatalf("duplicate host %q", n.Host)
		}
		hosts[n.Host] = true
		if len(n.Addrs) == 0 {
			t.Fatalf("%q has no addresses", n.Host)
		}
		if n.TTL <= 0 {
			t.Fatalf("%q has TTL %v", n.Host, n.TTL)
		}
		if n.AuthDelay < 3*time.Millisecond {
			t.Fatalf("%q auth delay %v below floor", n.Host, n.AuthDelay)
		}
		if n.CDN {
			cdn++
		}
	}
	frac := float64(cdn) / float64(db.Size())
	if frac < 0.30 || frac > 0.40 {
		t.Fatalf("CDN fraction %.3f, want ~0.35", frac)
	}
}

func TestCDNNamesShareAddresses(t *testing.T) {
	db := newDB(t, DefaultConfig())
	byAddr := make(map[string][]string)
	for _, n := range db.Names() {
		if n.CDN {
			byAddr[n.Addrs[0].String()] = append(byAddr[n.Addrs[0].String()], n.Host)
		}
	}
	shared := 0
	for _, hosts := range byAddr {
		if len(hosts) > 1 {
			shared++
		}
	}
	if shared < len(byAddr)/2 {
		t.Fatalf("only %d/%d CDN addresses shared by multiple names", shared, len(byAddr))
	}
}

func TestDedicatedAddressesUnique(t *testing.T) {
	db := newDB(t, DefaultConfig())
	seen := make(map[string]string)
	for _, n := range db.Names() {
		if n.CDN {
			continue
		}
		a := n.Addrs[0].String()
		if prev, dup := seen[a]; dup {
			t.Fatalf("dedicated addr %s shared by %q and %q", a, prev, n.Host)
		}
		seen[a] = n.Host
	}
}

func TestLookupAndByRank(t *testing.T) {
	db := newDB(t, DefaultConfig())
	n := db.ByRank(17)
	if db.Lookup(n.Host) != n {
		t.Fatal("Lookup(host) != ByRank result")
	}
	if db.Lookup("no.such.name") != nil {
		t.Fatal("missing name returned non-nil")
	}
}

func TestConnectivityCheckName(t *testing.T) {
	db := newDB(t, DefaultConfig())
	cc := db.ConnectivityCheck
	if cc == nil || cc.Host != "connectivitycheck.gstatic.com" {
		t.Fatalf("probe name = %+v", cc)
	}
	if db.Lookup(cc.Host) != cc {
		t.Fatal("probe name not in host index")
	}
	if cc.Service != ServiceProbe {
		t.Fatalf("probe service = %v", cc.Service)
	}
}

func TestPickPopularitySkew(t *testing.T) {
	db := newDB(t, Config{NumNames: 1000, ZipfExponent: 1.0, CDNFraction: 0.3, CDNPoolSize: 50})
	r := stats.NewRNG(99)
	top100 := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if db.Pick(r).Rank < 100 {
			top100++
		}
	}
	frac := float64(top100) / draws
	// Zipf(1.0, N=1000): top-100 mass = H(100)/H(1000) ≈ 0.69.
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("top-100 mass %.3f, want ~0.69", frac)
	}
}

func TestCDNShortTTLs(t *testing.T) {
	db := newDB(t, DefaultConfig())
	var cdnSum, dedSum time.Duration
	var cdnN, dedN int
	for _, n := range db.Names() {
		if n.CDN {
			cdnSum += n.TTL
			cdnN++
			if n.TTL > 300*time.Second {
				t.Fatalf("CDN name %q has TTL %v", n.Host, n.TTL)
			}
		} else {
			dedSum += n.TTL
			dedN++
		}
	}
	if cdnSum/time.Duration(cdnN) >= dedSum/time.Duration(dedN) {
		t.Fatal("CDN mean TTL not shorter than dedicated mean TTL")
	}
}

func TestHostNamingConvention(t *testing.T) {
	db := newDB(t, DefaultConfig())
	for _, n := range db.Names()[:100] {
		if strings.Count(n.Host, ".") != 2 {
			t.Fatalf("host %q not three labels", n.Host)
		}
	}
}

// TestHostSpellingMatchesSprintf pins the append-built hosts to the
// historical fmt.Sprintf("%s.site%05d.%s") spelling on a namespace past
// 100k names, so six-digit ranks, whose label outgrows the padding, are
// covered too. It also checks that each name's ID is its rank and that
// Lookup finds the slab entry itself.
func TestHostSpellingMatchesSprintf(t *testing.T) {
	db := newDB(t, Config{NumNames: 120_000, ZipfExponent: 1, CDNFraction: 0.35, CDNPoolSize: 3000})
	if db.NumIDs() != 120_001 || db.ConnectivityCheck.ID != 120_000 {
		t.Fatalf("NumIDs %d, probe ID %d; want 120001, 120000", db.NumIDs(), db.ConnectivityCheck.ID)
	}
	subs := map[ServiceClass]string{ServiceWeb: "www", ServiceAPI: "api", ServiceVideo: "video",
		ServiceDownload: "dl", ServiceChat: "chat"}
	for i := range db.Names() {
		n := db.ByRank(i)
		sub := subs[n.Service]
		if n.CDN {
			sub = "cdn"
		}
		if want := fmt.Sprintf("%s.site%05d.%s", sub, i, tlds[i%len(tlds)]); n.Host != want {
			t.Fatalf("rank %d: host %q, want %q", i, n.Host, want)
		}
		if n.ID != int32(i) || n.Rank != i {
			t.Fatalf("rank %d: ID %d, Rank %d", i, n.ID, n.Rank)
		}
		if db.Lookup(n.Host) != n {
			t.Fatalf("rank %d: Lookup(%q) is not the slab entry", i, n.Host)
		}
	}
}

func TestServiceClassString(t *testing.T) {
	for sc, want := range map[ServiceClass]string{
		ServiceWeb: "web", ServiceAPI: "api", ServiceVideo: "video",
		ServiceDownload: "download", ServiceChat: "chat", ServiceProbe: "probe",
		ServiceClass(99): "service99",
	} {
		if sc.String() != want {
			t.Errorf("%d.String() = %q, want %q", sc, sc.String(), want)
		}
	}
}
