package dnswire

import (
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "www.example.com", TypeA)
	b := mustEncode(t, q)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Header.ID != 0x1234 || got.Header.Response || !got.Header.RecursionDesired {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "www.example.com" ||
		got.Questions[0].Type != TypeA || got.Questions[0].Class != ClassIN {
		t.Fatalf("question mismatch: %+v", got.Questions)
	}
}

func TestResponseRoundTripAllRRTypes(t *testing.T) {
	q := NewQuery(7, "host.example.org", TypeANY)
	resp := NewResponse(q, RCodeNoError)
	resp.Header.Authoritative = true
	resp.Header.RecursionAvailable = true
	resp.AddAnswerA("host.example.org", netip.MustParseAddr("192.0.2.10"), 300)
	resp.AddAnswerA("host.example.org", netip.MustParseAddr("2001:db8::1"), 600)
	resp.AddAnswerCNAME("alias.example.org", "host.example.org", 120)
	resp.Answers = append(resp.Answers,
		RR{Name: "example.org", Type: TypeNS, Class: ClassIN, TTL: 3600, Target: "ns1.example.org"},
		RR{Name: "example.org", Type: TypeMX, Class: ClassIN, TTL: 3600, Pref: 10, Target: "mail.example.org"},
		RR{Name: "example.org", Type: TypeTXT, Class: ClassIN, TTL: 60, Text: []string{"v=spf1 -all", "second"}},
		RR{Name: "10.2.0.192.in-addr.arpa", Type: TypePTR, Class: ClassIN, TTL: 900, Target: "host.example.org"},
	)
	resp.Authority = append(resp.Authority, RR{
		Name: "example.org", Type: TypeSOA, Class: ClassIN, TTL: 1800,
		SOA: &SOAData{MName: "ns1.example.org", RName: "admin.example.org",
			Serial: 2020102701, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300},
	})
	resp.Additional = append(resp.Additional, RR{
		Name: ".", Type: TypeOPT, Class: Class(4096), Raw: []byte{1, 2, 3},
	})

	b := mustEncode(t, resp)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.Header.Response || !got.Header.Authoritative || !got.Header.RecursionAvailable {
		t.Fatalf("header flags lost: %+v", got.Header)
	}
	if len(got.Answers) != 7 || len(got.Authority) != 1 || len(got.Additional) != 1 {
		t.Fatalf("section counts: %d/%d/%d", len(got.Answers), len(got.Authority), len(got.Additional))
	}
	if got.Answers[0].Addr != netip.MustParseAddr("192.0.2.10") {
		t.Errorf("A addr = %v", got.Answers[0].Addr)
	}
	if got.Answers[1].Type != TypeAAAA || got.Answers[1].Addr != netip.MustParseAddr("2001:db8::1") {
		t.Errorf("AAAA = %+v", got.Answers[1])
	}
	if got.Answers[2].Target != "host.example.org" {
		t.Errorf("CNAME target = %q", got.Answers[2].Target)
	}
	if got.Answers[4].Pref != 10 || got.Answers[4].Target != "mail.example.org" {
		t.Errorf("MX = %+v", got.Answers[4])
	}
	if !reflect.DeepEqual(got.Answers[5].Text, []string{"v=spf1 -all", "second"}) {
		t.Errorf("TXT = %v", got.Answers[5].Text)
	}
	if got.Answers[6].Target != "host.example.org" {
		t.Errorf("PTR = %+v", got.Answers[6])
	}
	soa := got.Authority[0].SOA
	if soa == nil || soa.MName != "ns1.example.org" || soa.Serial != 2020102701 || soa.Minimum != 300 {
		t.Errorf("SOA = %+v", soa)
	}
	if !reflect.DeepEqual(got.Additional[0].Raw, []byte{1, 2, 3}) {
		t.Errorf("OPT raw = %v", got.Additional[0].Raw)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := NewQuery(1, "a.really.long.subdomain.example.com", TypeA)
	resp := NewResponse(m, RCodeNoError)
	for i := 0; i < 5; i++ {
		resp.AddAnswerA("a.really.long.subdomain.example.com", netip.MustParseAddr("192.0.2.1"), 60)
	}
	b := mustEncode(t, resp)
	// Uncompressed, each answer would repeat the 37-octet name. With
	// compression every answer name is a 2-byte pointer.
	if len(b) > 150 {
		t.Fatalf("compressed message unexpectedly large: %d bytes", len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range got.Answers {
		if rr.Name != "a.really.long.subdomain.example.com" {
			t.Fatalf("decompressed name = %q", rr.Name)
		}
	}
}

func TestRootNameRoundTrip(t *testing.T) {
	m := NewQuery(2, ".", TypeNS)
	got, err := Decode(mustEncode(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "." {
		t.Fatalf("root name = %q", got.Questions[0].Name)
	}
}

func TestNameCaseInsensitiveDecode(t *testing.T) {
	m := NewQuery(3, "WwW.ExAmPlE.CoM", TypeA)
	got, err := Decode(mustEncode(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "www.example.com" {
		t.Fatalf("name not canonicalized: %q", got.Questions[0].Name)
	}
}

func TestEncodeErrors(t *testing.T) {
	longLabel := strings.Repeat("x", 64)
	cases := []struct {
		name string
		m    *Message
	}{
		{"label too long", NewQuery(1, longLabel+".com", TypeA)},
		{"name too long", NewQuery(1, strings.Repeat("abcdefgh.", 32)+"com", TypeA)},
		{"empty label", NewQuery(1, "a..b", TypeA)},
		{"A with v6", &Message{Answers: []RR{{Name: "x.com", Type: TypeA, Addr: netip.MustParseAddr("2001:db8::1")}}}},
		{"AAAA with v4", &Message{Answers: []RR{{Name: "x.com", Type: TypeAAAA, Addr: netip.MustParseAddr("192.0.2.1")}}}},
		{"SOA without data", &Message{Answers: []RR{{Name: "x.com", Type: TypeSOA}}}},
		{"TXT too long", &Message{Answers: []RR{{Name: "x.com", Type: TypeTXT, Text: []string{strings.Repeat("y", 256)}}}}},
	}
	for _, c := range cases {
		if _, err := c.m.Encode(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestDecodeTruncations(t *testing.T) {
	full := mustEncode(t, func() *Message {
		q := NewQuery(9, "www.example.com", TypeA)
		r := NewResponse(q, RCodeNoError)
		r.AddAnswerA("www.example.com", netip.MustParseAddr("192.0.2.1"), 60)
		return r
	}())
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	if _, err := Decode(full); err != nil {
		t.Fatalf("full message failed: %v", err)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	b := append(mustEncode(t, NewQuery(1, "x.com", TypeA)), 0xde, 0xad)
	if _, err := Decode(b); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("err = %v, want ErrTrailingBytes", err)
	}
	m, n, err := DecodePrefix(b)
	if err != nil || n != len(b)-2 || m.Questions[0].Name != "x.com" {
		t.Fatalf("DecodePrefix: m=%v n=%d err=%v", m, n, err)
	}
}

func TestDecodePointerLoopRejected(t *testing.T) {
	// Header + a name that is a pointer to itself.
	b := make([]byte, 12, 14)
	b[4], b[5] = 0, 1 // QDCOUNT=1
	b = append(b, 0xC0, 12)
	if _, err := Decode(b); err == nil {
		t.Fatal("self-pointer decoded successfully")
	}
}

func TestDecodeForwardPointerRejected(t *testing.T) {
	b := make([]byte, 12)
	b[4], b[5] = 0, 1
	// Name = pointer to offset 100 (forward / out of decoded region).
	b = append(b, 0xC0, 100)
	b = append(b, make([]byte, 100)...)
	if _, err := Decode(b); err == nil {
		t.Fatal("forward pointer decoded successfully")
	}
}

func TestDecodeReservedLabelRejected(t *testing.T) {
	b := make([]byte, 12)
	b[4], b[5] = 0, 1
	b = append(b, 0x80, 0x01, 0, 0, 0, 0) // 10xxxxxx label type is reserved
	if _, err := Decode(b); !errors.Is(err, ErrReservedLabel) {
		t.Fatalf("err = %v, want ErrReservedLabel", err)
	}
}

// TestDecodeDotInLabelRejected: the two-label wire name
// "www.example"+"com" would otherwise decode to the same string as the
// three-label "www.example.com", slipping past a question-name check.
func TestDecodeDotInLabelRejected(t *testing.T) {
	b := make([]byte, 12)
	b[4], b[5] = 0, 1
	b = append(b, 11)
	b = append(b, "www.example"...)
	b = append(b, 3, 'c', 'o', 'm', 0, 0, 1, 0, 1)
	if _, err := Decode(b); !errors.Is(err, ErrDotInLabel) {
		t.Fatalf("err = %v, want ErrDotInLabel", err)
	}
}

func TestDecodeAbsurdCounts(t *testing.T) {
	b := make([]byte, 12)
	b[6], b[7] = 0xFF, 0xFF // ANCOUNT=65535 in a 12-byte message
	if _, err := Decode(b); !errors.Is(err, ErrTooManyRecords) {
		t.Fatalf("err = %v, want ErrTooManyRecords", err)
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		// Must not panic; errors are fine.
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: any well-formed query round-trips through encode/decode.
func TestQueryRoundTripProperty(t *testing.T) {
	f := func(id uint16, l1, l2 uint8, tsel uint8) bool {
		labels := []string{
			strings.Repeat("a", int(l1%MaxLabelLen)+1),
			strings.Repeat("b", int(l2%MaxLabelLen)+1),
			"test",
		}
		name := strings.Join(labels, ".")
		types := []Type{TypeA, TypeAAAA, TypeCNAME, TypeMX, TypeTXT, TypeNS}
		typ := types[int(tsel)%len(types)]
		m := NewQuery(id, name, typ)
		b, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return got.Header.ID == id &&
			got.Questions[0].Name == name &&
			got.Questions[0].Type == typ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"WWW.Example.COM.", "www.example.com"},
		{"www.example.com", "www.example.com"},
		{".", "."},
		{"", "."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAnswerAddrsAndMinTTL(t *testing.T) {
	q := NewQuery(1, "x.com", TypeA)
	r := NewResponse(q, RCodeNoError)
	if r.MinAnswerTTL() != 0 {
		t.Fatal("empty MinAnswerTTL != 0")
	}
	r.AddAnswerCNAME("x.com", "y.com", 500)
	r.AddAnswerA("y.com", netip.MustParseAddr("192.0.2.1"), 300)
	r.AddAnswerA("y.com", netip.MustParseAddr("192.0.2.2"), 700)
	addrs := r.AnswerAddrs()
	if len(addrs) != 2 {
		t.Fatalf("AnswerAddrs = %v", addrs)
	}
	if r.MinAnswerTTL() != 300 {
		t.Fatalf("MinAnswerTTL = %d", r.MinAnswerTTL())
	}
}

func TestStringers(t *testing.T) {
	if TypeA.String() != "A" || Type(999).String() != "TYPE999" {
		t.Error("Type.String")
	}
	if ClassIN.String() != "IN" || Class(9).String() != "CLASS9" {
		t.Error("Class.String")
	}
	if OpcodeQuery.String() != "QUERY" || Opcode(7).String() != "OPCODE7" {
		t.Error("Opcode.String")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(15).String() != "RCODE15" {
		t.Error("RCode.String")
	}
	q := Question{Name: "a.b", Type: TypeA, Class: ClassIN}
	if q.String() != "a.b IN A" {
		t.Errorf("Question.String = %q", q.String())
	}
	rr := RR{Name: "a.b", Type: TypeA, Class: ClassIN, TTL: 60, Addr: netip.MustParseAddr("192.0.2.1")}
	if !strings.Contains(rr.String(), "192.0.2.1") {
		t.Errorf("RR.String = %q", rr.String())
	}
}

func TestMessageString(t *testing.T) {
	q := NewQuery(7, "www.example.com", TypeA)
	resp := NewResponse(q, RCodeNoError)
	resp.Header.Authoritative = true
	resp.Header.RecursionAvailable = true
	resp.AddAnswerA("www.example.com", netip.MustParseAddr("192.0.2.1"), 60)
	resp.Authority = append(resp.Authority, RR{
		Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 3600, Target: "ns1.example.com",
	})
	out := resp.String()
	for _, want := range []string{
		"RESPONSE", "id=7", "NOERROR", "aa", "ra",
		"QUESTION", "www.example.com IN A",
		"ANSWER", "192.0.2.1",
		"AUTHORITY", "ns1.example.com",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q in:\n%s", want, out)
		}
	}
	qs := q.String()
	if !strings.Contains(qs, "QUERY") || !strings.Contains(qs, "rd") {
		t.Errorf("query String() = %q", qs)
	}
}

func TestRRStringAllTypes(t *testing.T) {
	cases := []struct {
		rr   RR
		want string
	}{
		{RR{Name: "a.b", Type: TypeAAAA, Class: ClassIN, TTL: 1, Addr: netip.MustParseAddr("2001:db8::1")}, "2001:db8::1"},
		{RR{Name: "a.b", Type: TypeCNAME, Class: ClassIN, Target: "c.d"}, "CNAME c.d"},
		{RR{Name: "a.b", Type: TypeNS, Class: ClassIN, Target: "ns.d"}, "NS ns.d"},
		{RR{Name: "a.b", Type: TypePTR, Class: ClassIN, Target: "p.d"}, "PTR p.d"},
		{RR{Name: "a.b", Type: TypeMX, Class: ClassIN, Pref: 5, Target: "mx.d"}, "5 mx.d"},
		{RR{Name: "a.b", Type: TypeTXT, Class: ClassIN, Text: []string{"x", "y"}}, "x y"},
		{RR{Name: "a.b", Type: TypeSOA, Class: ClassIN, SOA: &SOAData{MName: "m", RName: "r", Serial: 3}}, "m r 3"},
		{RR{Name: "a.b", Type: TypeSOA, Class: ClassIN}, "SOA"},
		{RR{Name: "a.b", Type: TypeOPT, Class: ClassIN, Raw: []byte{1, 2}}, "\\# 2"},
	}
	for _, c := range cases {
		if got := c.rr.String(); !strings.Contains(got, c.want) {
			t.Errorf("RR.String() = %q, want substring %q", got, c.want)
		}
	}
}

func TestStringersExhaustive(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeNS: "NS", TypeCNAME: "CNAME", TypeSOA: "SOA", TypePTR: "PTR",
		TypeMX: "MX", TypeTXT: "TXT", TypeAAAA: "AAAA", TypeOPT: "OPT", TypeANY: "ANY",
	} {
		if typ.String() != want {
			t.Errorf("Type %d = %q, want %q", typ, typ.String(), want)
		}
	}
	for c, want := range map[Class]string{ClassCH: "CH", ClassANY: "ANY"} {
		if c.String() != want {
			t.Errorf("Class %d = %q", c, c.String())
		}
	}
	for o, want := range map[Opcode]string{
		OpcodeIQuery: "IQUERY", OpcodeStatus: "STATUS", OpcodeNotify: "NOTIFY", OpcodeUpdate: "UPDATE",
	} {
		if o.String() != want {
			t.Errorf("Opcode %d = %q", o, o.String())
		}
	}
	for rc, want := range map[RCode]string{
		RCodeFormErr: "FORMERR", RCodeServFail: "SERVFAIL", RCodeNotImp: "NOTIMP", RCodeRefused: "REFUSED", RCodeNoError: "NOERROR",
	} {
		if rc.String() != want {
			t.Errorf("RCode %d = %q", rc, rc.String())
		}
	}
}

func TestDecodeMXErrors(t *testing.T) {
	// An MX record whose RDATA is too short for the preference field.
	q := NewQuery(1, "a.com", TypeMX)
	resp := NewResponse(q, RCodeNoError)
	resp.Answers = append(resp.Answers, RR{Name: "a.com", Type: TypeMX, Class: ClassIN, Pref: 1, Target: "m.com"})
	b := mustEncode(t, resp)
	// Truncate the RDATA by rewriting RDLENGTH of the MX record to 1.
	// Find it: it's the last record; corrupt its length bytes.
	corrupted := false
	for i := len(b) - 4; i > 12; i-- {
		// look for the MX rdlen: type MX(15) class IN(1) precede it.
		if b[i-8] == 0 && b[i-7] == 15 && b[i-6] == 0 && b[i-5] == 1 {
			b[i], b[i+1] = 0, 1
			corrupted = true
			break
		}
	}
	if corrupted {
		if _, err := Decode(b); err == nil {
			t.Fatal("short MX rdata decoded")
		}
	}
}
