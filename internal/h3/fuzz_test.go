package h3

import (
	"reflect"
	"testing"

	"repro/internal/dnsmsg"
)

// FuzzParseExchange runs the request-stream decoders over arbitrary
// stream bytes: readFrame slices frames off the front, DecodeFieldSection
// decodes each HEADERS payload, and parseExchange runs both as the
// client does. None may panic, readFrame must make progress on success,
// and any field section DecodeFieldSection accepts must survive
// EncodeFieldSection and decode to the same headers.
func FuzzParseExchange(f *testing.F) {
	// The field sections a DoH3 exchange carries: the dox client's
	// request and the dox server's answer and error statuses.
	query := dnsmsg.NewQuery(1, "example.com", dnsmsg.TypeA)
	wire := query.Encode()
	request := []Header{
		{":method", "POST"},
		{":scheme", "https"},
		{":authority", "resolver-003.EU.example"},
		{":path", "/dns-query"},
		{"accept", "application/dns-message"},
		{"content-type", "application/dns-message"},
		{"content-length", "29"},
		{"user-agent", "repro-dnsperf/1.0"},
	}
	answer := []Header{
		{":status", "200"},
		{"content-type", "application/dns-message"},
		{"cache-control", "max-age=60"},
	}
	f.Add(appendFrame(appendFrame(nil, frameHeaders, EncodeFieldSection(request)), frameData, wire))
	f.Add(appendFrame(appendFrame(nil, frameHeaders, EncodeFieldSection(answer)), frameData, wire))
	f.Add(appendFrame(nil, frameHeaders, EncodeFieldSection([]Header{{":status", "503"}})))
	f.Add(appendFrame(appendFrame(nil, frameSettings, settingsPayload()), frameGoAway, []byte{0}))
	f.Add([]byte{frameHeaders, 5, 0, 0, fieldLiteral, 9})

	f.Fuzz(func(t *testing.T, raw []byte) {
		for rest := raw; len(rest) > 0; {
			ftype, payload, next, err := readFrame(rest)
			if err != nil {
				break
			}
			if len(next) >= len(rest) {
				t.Fatalf("readFrame made no progress on %x", rest)
			}
			if ftype == frameHeaders {
				checkFieldSection(t, payload)
			}
			rest = next
		}
		parseExchange(raw)
	})
}

// checkFieldSection asserts the DecodeFieldSection/EncodeFieldSection
// fixed point on one HEADERS payload.
func checkFieldSection(t *testing.T, b []byte) {
	hs, err := DecodeFieldSection(b)
	if err != nil {
		return
	}
	again, err := DecodeFieldSection(EncodeFieldSection(hs))
	if err != nil {
		t.Fatalf("re-encoded field section does not decode: %v", err)
	}
	if !reflect.DeepEqual(hs, again) {
		t.Fatalf("headers changed across re-encoding:\n%q\n%q", hs, again)
	}
}
