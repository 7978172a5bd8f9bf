// Package dnsmsg implements the DNS wire format (RFC 1035) with EDNS0
// (RFC 6891): message header, questions, resource records for the types
// the study uses, and domain-name compression on encode and decode.
package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Type is a resource record type.
type Type uint16

// Record types used by the study.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
)

func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a resource record class. Only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a response code.
type RCode uint8

// Response codes.
const (
	RCodeSuccess  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeRefused  RCode = 5
)

// Question is a query name/type/class triple.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// Resource is a resource record.
type Resource struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	// Data holds the record payload: for A/AAAA the address bytes, for
	// CNAME/NS an encoded name is produced from Target, otherwise raw.
	Data []byte
	// Addr is used for A and AAAA records.
	Addr netip.Addr
	// Target is used for CNAME and NS records.
	Target string
}

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	OpCode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode

	Questions   []Question
	Answers     []Resource
	Authorities []Resource
	Additionals []Resource

	// EDNS0 reflects an OPT pseudo-record in Additionals. When UDPSize is
	// non-zero an OPT record is appended on encode.
	UDPSize uint16
}

// NewQuery returns a recursive query for (name, type) with the given ID
// and an EDNS0 OPT advertising a 1232-byte UDP payload, matching common
// stub resolver behaviour.
func NewQuery(id uint16, name string, t Type) Message {
	return Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: t, Class: ClassIN}},
		UDPSize:          1232,
	}
}

// Reply constructs a response skeleton for q (same ID and question,
// response and recursion-available bits set).
func Reply(q Message) Message {
	r := replyHeader(&q)
	r.Questions = append([]Question(nil), q.Questions...)
	return r
}

// replyHeader is Reply without the questions.
func replyHeader(q *Message) Message {
	return Message{
		ID:                 q.ID,
		Response:           true,
		RecursionDesired:   q.RecursionDesired,
		RecursionAvailable: true,
		UDPSize:            q.UDPSize,
	}
}

// AppendReplyA appends to dst the encoding of Reply(*m) after
// AnswerA(addr, ttl), without allocating: the reply shares m's
// questions and keeps its one answer on the stack. It is the hit path of
// a cache answering queries.
func (m *Message) AppendReplyA(dst []byte, addr netip.Addr, ttl uint32) []byte {
	r := replyHeader(m)
	r.Questions = m.Questions
	var ans [1]Resource
	if len(m.Questions) > 0 {
		ans[0] = answerA(m.Questions[0].Name, addr, ttl)
		r.Answers = ans[:]
	}
	return r.AppendEncode(dst)
}

var (
	errShortMessage = errors.New("dnsmsg: short message")
	errBadName      = errors.New("dnsmsg: malformed name")
	errLoop         = errors.New("dnsmsg: compression loop")
)

// Encode serializes the message to wire format.
func (m *Message) Encode() []byte {
	// One right-sized allocation beats letting append discover the
	// message size 16 bytes at a time.
	return m.AppendEncode(make([]byte, 0, 512))
}

// AppendEncode appends the wire encoding to dst and returns the extended
// slice, reusing dst's capacity (servers lease dst from a byte pool).
func (m *Message) AppendEncode(dst []byte) []byte {
	var e encoder
	e.buf = dst
	e.base = len(dst) // compression offsets are message-relative
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.OpCode&0xf) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xf)

	nAdds := len(m.Additionals)
	if m.UDPSize > 0 {
		nAdds++ // OPT pseudo-record appended below
	}

	e.u16(m.ID)
	e.u16(flags)
	e.u16(uint16(len(m.Questions)))
	e.u16(uint16(len(m.Answers)))
	e.u16(uint16(len(m.Authorities)))
	e.u16(uint16(nAdds))
	for i := range m.Questions {
		q := &m.Questions[i]
		e.name(q.Name)
		e.u16(uint16(q.Type))
		e.u16(uint16(q.Class))
	}
	for _, sec := range [3][]Resource{m.Answers, m.Authorities, m.Additionals} {
		for i := range sec {
			e.resource(&sec[i])
		}
	}
	if m.UDPSize > 0 {
		opt := Resource{Name: ".", Type: TypeOPT, Class: Class(m.UDPSize)}
		e.resource(&opt)
	}
	return e.buf
}

// nameOffset records where a name suffix was written, for compression.
// A small linear table beats a map here: messages carry a handful of
// names, and the table lives on the encoder's stack frame. Only a
// message with more suffixes than the array holds spills to the heap.
// The encoder must hold no pointer into itself (a names slice over the
// array would be one): that alone moves it to the heap.
type nameOffset struct {
	suffix string
	off    int
}

type encoder struct {
	buf    []byte
	base   int // message start within buf
	nNames int // used prefix of names
	names  [24]nameOffset
	spill  []nameOffset // suffixes past the array, in insertion order
}

// lookup returns the message offset of a previously written suffix.
func (e *encoder) lookup(suffix string) (int, bool) {
	for _, n := range e.names[:e.nNames] {
		if n.suffix == suffix {
			return n.off, true
		}
	}
	for _, n := range e.spill {
		if n.suffix == suffix {
			return n.off, true
		}
	}
	return 0, false
}

// record remembers where suffix was written.
func (e *encoder) record(suffix string, off int) {
	if e.nNames < len(e.names) {
		e.names[e.nNames] = nameOffset{suffix, off}
		e.nNames++
		return
	}
	e.spill = append(e.spill, nameOffset{suffix, off})
}

func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// name encodes a domain name with compression against previously written
// names. Suffixes are substrings of name, so recording them costs no
// allocation.
func (e *encoder) name(name string) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		e.buf = append(e.buf, 0)
		return
	}
	for i := 0; i < len(name); {
		suffix := name[i:]
		if off, ok := e.lookup(suffix); ok {
			e.u16(0xc000 | uint16(off))
			return
		}
		if len(e.buf)-e.base < 0x3fff {
			e.record(suffix, len(e.buf)-e.base)
		}
		l := suffix
		if j := strings.IndexByte(suffix, '.'); j >= 0 {
			l = suffix[:j]
			i += j + 1
		} else {
			i = len(name)
		}
		if len(l) > 63 {
			l = l[:63]
		}
		e.buf = append(e.buf, byte(len(l)))
		e.buf = append(e.buf, l...)
	}
	e.buf = append(e.buf, 0)
}

func (e *encoder) resource(r *Resource) {
	e.name(r.Name)
	e.u16(uint16(r.Type))
	e.u16(uint16(r.Class))
	e.u32(r.TTL)
	lenAt := len(e.buf)
	e.u16(0) // patched below
	start := len(e.buf)
	switch r.Type {
	case TypeA, TypeAAAA:
		if r.Addr.Is4() {
			a := r.Addr.As4()
			e.buf = append(e.buf, a[:]...)
		} else {
			a := r.Addr.As16()
			e.buf = append(e.buf, a[:]...)
		}
	case TypeCNAME, TypeNS:
		e.name(r.Target)
	default:
		e.buf = append(e.buf, r.Data...)
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:], uint16(len(e.buf)-start))
}

// headerLen is the fixed DNS header: ID, flags and four section counts.
const headerLen = 12

// Decode parses a wire-format message. Everything the message keeps is
// copied out of b, so the caller may reuse b as soon as Decode returns.
// The common shapes — one question, or one question and one answer —
// are allocated together with the Message, so a typical query or reply
// costs that one allocation plus its distinct names.
func Decode(b []byte) (*Message, error) {
	if len(b) < headerLen {
		return nil, errShortMessage
	}
	var counts [4]uint16
	for i := range counts {
		counts[i] = binary.BigEndian.Uint16(b[4+2*i:])
	}
	var m *Message
	var answer []Resource // storage for a lone answer, allocated with m
	switch {
	case counts[0] == 1 && counts[1] == 1:
		blk := new(struct {
			m Message
			q [1]Question
			a [1]Resource
		})
		m, answer = &blk.m, blk.a[:0]
		m.Questions = blk.q[:0]
	case counts[0] == 1:
		blk := new(struct {
			m Message
			q [1]Question
		})
		m = &blk.m
		m.Questions = blk.q[:0]
	default:
		m = new(Message)
	}
	m.ID = binary.BigEndian.Uint16(b)
	flags := binary.BigEndian.Uint16(b[2:])
	m.Response = flags&(1<<15) != 0
	m.OpCode = uint8(flags >> 11 & 0xf)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0xf)

	d := decoder{buf: b, off: headerLen}
	var err error
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = d.name(); err != nil {
			return nil, err
		}
		t, err := d.u16()
		if err != nil {
			return nil, err
		}
		c, err := d.u16()
		if err != nil {
			return nil, err
		}
		q.Type, q.Class = Type(t), Class(c)
		m.Questions = append(m.Questions, q)
	}
	secs := []*[]Resource{&m.Answers, &m.Authorities, &m.Additionals}
	for si, sec := range secs {
		for i := 0; i < int(counts[si+1]); i++ {
			r, err := d.resource()
			if err != nil {
				return nil, err
			}
			if r.Type == TypeOPT {
				m.UDPSize = uint16(r.Class)
				continue
			}
			if si == 0 && *sec == nil {
				// A section stays nil until it holds a record, so an OPT
				// misplaced among the answers leaves Answers nil.
				*sec = answer
			}
			*sec = append(*sec, r)
		}
	}
	return m, nil
}

type decoder struct {
	buf []byte
	off int
	// seen remembers names decoded whole at a message offset, so a
	// compression pointer to one (an answer's owner name pointing at the
	// question) reuses the string instead of building it again.
	seen  [4]decodedName
	nSeen int
}

type decodedName struct {
	off  int
	name string
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > len(d.buf) {
		return 0, errShortMessage
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, errShortMessage
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) name() (string, error) {
	s, next, err := d.nameAt(d.off)
	if err != nil {
		return "", err
	}
	d.off = next
	return s, nil
}

// nameAt decodes a possibly compressed name starting at off. It returns
// the name and the offset just past the name's first encoding. Labels
// accumulate in a stack buffer (names are at most 255 bytes on the wire)
// so the only allocation is the returned string, and none when the name
// repeats one decoded earlier in the message; compression pointers
// are followed iteratively and must point strictly backwards, which
// bounds the walk without a depth counter.
func (d *decoder) nameAt(off int) (string, int, error) {
	var arr [256]byte
	b := arr[:0]
	start := off
	end := -1 // offset just past the first encoding, once known
	for {
		if off >= len(d.buf) {
			return "", 0, errShortMessage
		}
		l := int(d.buf[off])
		switch {
		case l == 0:
			off++
			if end < 0 {
				end = off
			}
			if len(b) == 0 {
				return ".", end, nil
			}
			s := string(b)
			if d.nSeen < len(d.seen) {
				d.seen[d.nSeen] = decodedName{start, s}
				d.nSeen++
			}
			return s, end, nil
		case l&0xc0 == 0xc0:
			if off+2 > len(d.buf) {
				return "", 0, errShortMessage
			}
			ptr := int(binary.BigEndian.Uint16(d.buf[off:]) & 0x3fff)
			if ptr >= off {
				return "", 0, errLoop
			}
			if end < 0 {
				end = off + 2
			}
			if len(b) == 0 {
				// Nothing precedes the pointer, so the name is exactly the
				// one at ptr; if that was decoded already, it is reused.
				for _, n := range d.seen[:d.nSeen] {
					if n.off == ptr {
						return n.name, end, nil
					}
				}
			}
			off = ptr
		case l&0xc0 != 0:
			return "", 0, errBadName
		default:
			off++
			if off+l > len(d.buf) {
				return "", 0, errShortMessage
			}
			if len(b) > 0 {
				b = append(b, '.')
			}
			if len(b)+l > len(arr) {
				return "", 0, errBadName
			}
			b = append(b, d.buf[off:off+l]...)
			off += l
		}
	}
}

func (d *decoder) resource() (Resource, error) {
	var r Resource
	var err error
	if r.Name, err = d.name(); err != nil {
		return r, err
	}
	t, err := d.u16()
	if err != nil {
		return r, err
	}
	c, err := d.u16()
	if err != nil {
		return r, err
	}
	ttl, err := d.u32()
	if err != nil {
		return r, err
	}
	rdlen, err := d.u16()
	if err != nil {
		return r, err
	}
	r.Type, r.Class, r.TTL = Type(t), Class(c), ttl
	if d.off+int(rdlen) > len(d.buf) {
		return r, errShortMessage
	}
	rdata := d.buf[d.off : d.off+int(rdlen)]
	switch r.Type {
	case TypeA:
		if len(rdata) == 4 {
			r.Addr = netip.AddrFrom4([4]byte(rdata))
		}
	case TypeAAAA:
		if len(rdata) == 16 {
			r.Addr = netip.AddrFrom16([16]byte(rdata))
		}
	case TypeCNAME, TypeNS:
		target, _, err := d.nameAt(d.off)
		if err != nil {
			return r, err
		}
		r.Target = target
	default:
		r.Data = append([]byte(nil), rdata...)
	}
	d.off += int(rdlen)
	return r, nil
}

// AnswerA appends an A record answering the first question.
func (m *Message) AnswerA(addr netip.Addr, ttl uint32) {
	if len(m.Questions) == 0 {
		return
	}
	m.Answers = append(m.Answers, answerA(m.Questions[0].Name, addr, ttl))
}

func answerA(name string, addr netip.Addr, ttl uint32) Resource {
	return Resource{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl, Addr: addr}
}

// FirstA returns the first A answer's address.
func (m *Message) FirstA() (netip.Addr, bool) {
	for _, a := range m.Answers {
		if a.Type == TypeA && a.Addr.IsValid() {
			return a.Addr, true
		}
	}
	return netip.Addr{}, false
}

// String renders a compact dig-like summary, useful in examples.
func (m *Message) String() string {
	var sb strings.Builder
	kind := "query"
	if m.Response {
		kind = "response"
	}
	fmt.Fprintf(&sb, "%s id=%d rcode=%d", kind, m.ID, m.RCode)
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, " %s/%s", q.Name, q.Type)
	}
	for _, a := range m.Answers {
		switch a.Type {
		case TypeA, TypeAAAA:
			fmt.Fprintf(&sb, " -> %s", a.Addr)
		case TypeCNAME:
			fmt.Fprintf(&sb, " -> CNAME %s", a.Target)
		}
	}
	return sb.String()
}
