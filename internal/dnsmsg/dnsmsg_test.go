package dnsmsg

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "google.com", TypeA)
	b := q.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response || !got.RecursionDesired {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "google.com" || got.Questions[0].Type != TypeA {
		t.Errorf("question mismatch: %+v", got.Questions)
	}
	if got.UDPSize != 1232 {
		t.Errorf("UDPSize = %d, want 1232 (EDNS0 OPT)", got.UDPSize)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewQuery(7, "example.org", TypeA)
	r := Reply(q)
	r.AnswerA(netip.MustParseAddr("93.184.216.34"), 300)
	b := r.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || !got.RecursionAvailable {
		t.Error("response bits not set")
	}
	addr, ok := got.FirstA()
	if !ok || addr != netip.MustParseAddr("93.184.216.34") {
		t.Errorf("FirstA = %v, %v", addr, ok)
	}
	if got.Answers[0].Name != "example.org" || got.Answers[0].TTL != 300 {
		t.Errorf("answer = %+v", got.Answers[0])
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	q := NewQuery(1, "www.example.com", TypeA)
	r := Reply(q)
	r.AnswerA(netip.MustParseAddr("1.2.3.4"), 60)
	b := r.Encode()
	// The answer's owner name must be a 2-byte pointer, not a repeat of
	// the 17-byte name encoding.
	count := strings.Count(string(b), "example")
	if count != 1 {
		t.Errorf("name appears %d times in encoding, want 1 (compression)", count)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Name != "www.example.com" {
		t.Errorf("decompressed name = %q", got.Answers[0].Name)
	}
}

func TestCNAMERoundTrip(t *testing.T) {
	q := NewQuery(2, "google.com", TypeA)
	r := Reply(q)
	r.Answers = append(r.Answers, Resource{
		Name: "google.com", Type: TypeCNAME, Class: ClassIN, TTL: 60,
		Target: "www.google.com",
	})
	got, err := Decode(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Target != "www.google.com" {
		t.Errorf("CNAME target = %q", got.Answers[0].Target)
	}
}

func TestRCodeRoundTrip(t *testing.T) {
	for _, rc := range []RCode{RCodeSuccess, RCodeFormErr, RCodeServFail, RCodeNXDomain, RCodeRefused} {
		m := NewQuery(1, "x.test", TypeA)
		m.Response = true
		m.RCode = rc
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.RCode != rc {
			t.Errorf("rcode = %d, want %d", got.RCode, rc)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x12},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, // claims a question, no data
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode succeeded on truncated input", i)
		}
	}
}

func TestCompressionPointerLoopRejected(t *testing.T) {
	// Header + a question whose name is a pointer to itself.
	b := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xc0, 12, // pointer to offset 12 (itself)
		0, 1, 0, 1,
	}
	if _, err := Decode(b); err == nil {
		t.Error("self-referential compression pointer accepted")
	}
}

func TestRootName(t *testing.T) {
	q := Message{ID: 1, Questions: []Question{{Name: ".", Type: TypeNS, Class: ClassIN}}}
	got, err := Decode(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "." {
		t.Errorf("root name = %q", got.Questions[0].Name)
	}
}

func TestQuerySizeRealistic(t *testing.T) {
	// An A query for google.com with EDNS0 is 39 bytes on the wire; the
	// paper's Table 1 reports 59 B median DoUDP query *IP payload* (DNS
	// payload + 8 B UDP header + padding-free EDNS). Sanity-check we are
	// in that neighbourhood.
	q := NewQuery(1, "google.com", TypeA)
	n := len(q.Encode())
	if n < 28 || n > 64 {
		t.Errorf("query size = %d, want 28..64", n)
	}
}

// randName generates a syntactically valid DNS name from the fuzz source.
func randName(r *rand.Rand) string {
	labels := 1 + r.Intn(4)
	parts := make([]string, labels)
	for i := range parts {
		n := 1 + r.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, ".")
}

func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	f := func(id uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Message{
			ID:               id,
			RecursionDesired: r.Intn(2) == 0,
			Response:         r.Intn(2) == 0,
			RCode:            RCode(r.Intn(6)),
		}
		nq := 1 + r.Intn(3)
		for i := 0; i < nq; i++ {
			m.Questions = append(m.Questions, Question{Name: randName(r), Type: TypeA, Class: ClassIN})
		}
		na := r.Intn(4)
		for i := 0; i < na; i++ {
			addr := netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
			m.Answers = append(m.Answers, Resource{
				Name: m.Questions[0].Name, Type: TypeA, Class: ClassIN,
				TTL: uint32(r.Intn(3600)), Addr: addr,
			})
		}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		if got.ID != m.ID || got.Response != m.Response || got.RCode != m.RCode {
			return false
		}
		if !reflect.DeepEqual(got.Questions, m.Questions) {
			return false
		}
		if len(got.Answers) != len(m.Answers) {
			return false
		}
		for i := range got.Answers {
			if got.Answers[i].Addr != m.Answers[i].Addr || got.Answers[i].Name != m.Answers[i].Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("Decode panicked on %x: %v", b, p)
			}
		}()
		Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// oneAnswerReply is the steady-state response shape: one question and
// one A answer whose owner name compresses to the question.
func oneAnswerReply() Message {
	r := Reply(NewQuery(7, "www.example.com", TypeA))
	r.AnswerA(netip.MustParseAddr("192.0.2.1"), 300)
	return r
}

// TestAppendEncodeAllocFree pins the encoder on the stack: encoding into
// a buffer with enough capacity allocates nothing.
func TestAppendEncodeAllocFree(t *testing.T) {
	q := NewQuery(1, "www.example.com", TypeA)
	r := oneAnswerReply()
	buf := make([]byte, 0, 512)
	for _, m := range []*Message{&q, &r} {
		if n := testing.AllocsPerRun(100, func() { buf = m.AppendEncode(buf[:0]) }); n != 0 {
			t.Errorf("AppendEncode(%v) made %v allocations, want 0", m, n)
		}
	}
}

// TestDecodeAllocs bounds the steady-state decode: a one-question query
// or a one-question, one-answer response costs the message (allocated
// with its question and answer) plus one name, which the answer's
// compressed owner name reuses.
func TestDecodeAllocs(t *testing.T) {
	q := NewQuery(1, "www.example.com", TypeA)
	r := oneAnswerReply()
	for _, m := range []*Message{&q, &r} {
		wire := m.Encode()
		if n := testing.AllocsPerRun(100, func() { Decode(wire) }); n > 2 {
			t.Errorf("Decode(%v) made %v allocations, want <= 2", m, n)
		}
	}
}

// TestAppendReplyA checks the cache hit-path encoder against the
// composition it replaces, and that it allocates nothing.
func TestAppendReplyA(t *testing.T) {
	addr := netip.MustParseAddr("192.0.2.7")
	for _, q := range []Message{
		NewQuery(9, "www.example.com", TypeA),
		{ID: 3, Questions: []Question{{Name: "a.test", Type: TypeA, Class: ClassIN}, {Name: "b.test", Type: TypeA, Class: ClassIN}}},
		{ID: 4},
	} {
		want := Reply(q)
		want.AnswerA(addr, 42)
		if got := q.AppendReplyA(nil, addr, 42); !reflect.DeepEqual(got, want.Encode()) {
			t.Errorf("AppendReplyA(%v) = %x, want %x", &q, got, want.Encode())
		}
		buf := make([]byte, 0, 512)
		if n := testing.AllocsPerRun(100, func() { buf = q.AppendReplyA(buf[:0], addr, 42) }); n != 0 {
			t.Errorf("AppendReplyA(%v) made %v allocations, want 0", &q, n)
		}
	}
}

// TestCompressionPastNameTable checks a message with more name suffixes
// than the encoder's fixed table: names recorded past it still compress,
// and the message round-trips.
func TestCompressionPastNameTable(t *testing.T) {
	m := Message{ID: 1, Response: true, Questions: []Question{{Name: "q.example.com", Type: TypeA, Class: ClassIN}}}
	var names []string
	for i := 0; i < 40; i++ {
		names = append(names, fmt.Sprintf("n%02d.example.com", i))
	}
	for _, n := range names {
		m.Answers = append(m.Answers, Resource{Name: n, Type: TypeA, Class: ClassIN, TTL: 1, Addr: netip.MustParseAddr("192.0.2.1")})
	}
	for _, n := range names {
		m.Authorities = append(m.Authorities, Resource{Name: "zone.test", Type: TypeNS, Class: ClassIN, TTL: 1, Target: n})
	}
	wire := m.Encode()
	for _, n := range names {
		if c := strings.Count(string(wire), n[:3]); c != 1 {
			t.Errorf("label %q written %d times, want 1 (compressed)", n[:3], c)
		}
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answers, m.Answers) || !reflect.DeepEqual(got.Authorities, m.Authorities) {
		t.Error("message with a spilled name table did not round-trip")
	}
}

// TestDecodeOPTAmongAnswersLeavesAnswersNil checks that a section stays
// nil unless it holds a record, even when the message's one answer slot
// is taken by an OPT pseudo-record.
func TestDecodeOPTAmongAnswersLeavesAnswersNil(t *testing.T) {
	b := []byte{
		0, 1, 0x80, 0, 0, 1, 0, 1, 0, 0, 0, 0, // response, qd=1 an=1
		1, 'x', 0, 0, 1, 0, 1, // question x. A IN
		0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 0, // OPT, 1232-byte UDP payload
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Answers != nil || m.UDPSize != 1232 {
		t.Errorf("Answers = %#v, UDPSize = %d; want nil, 1232", m.Answers, m.UDPSize)
	}
}
