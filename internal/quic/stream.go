package quic

import (
	"errors"

	"repro/internal/sim"
)

// Stream is a bidirectional QUIC stream. RFC 9250 maps one DNS query onto
// one client-initiated bidirectional stream.
type Stream struct {
	conn *Conn
	id   uint64

	sendOffset uint64
	sentFIN    bool
	earlyData  []*frame // frames sent as 0-RTT, kept for replay on reject

	recvNext    uint64
	recvPending map[uint64]*frame
	finalSize   uint64
	hasFinal    bool
	readQ       *sim.Queue[[]byte]
	done        bool
}

func newStream(c *Conn, id uint64) *Stream {
	return &Stream{
		conn:        c,
		id:          id,
		recvPending: make(map[uint64]*frame),
		// Static name: the id only matters in deadlock diagnostics, and
		// formatting it would allocate per stream (= per DNS query).
		readQ: sim.NewQueue[[]byte](c.w, "quic-stream"),
	}
}

// Write queues p on the stream; fin marks the end of the stream. Writes
// before handshake completion are sent as 0-RTT when the connection
// offered it (and replayed as 1-RTT if the server rejects).
func (s *Stream) Write(p []byte, fin bool) error {
	if s.conn.closed {
		return errors.New("quic: connection closed")
	}
	if s.sentFIN {
		return errors.New("quic: write after FIN")
	}
	const chunk = 1000
	var frames []*frame
	for off := 0; off < len(p) || (fin && off == 0 && len(p) == 0); off += chunk {
		end := off + chunk
		if end > len(p) {
			end = len(p)
		}
		f := &frame{
			kind:     frStreamBase,
			streamID: s.id,
			offset:   s.sendOffset,
			data:     append([]byte(nil), p[off:end]...),
			fin:      fin && end == len(p),
		}
		s.sendOffset += uint64(end - off)
		frames = append(frames, f)
		if len(p) == 0 {
			break
		}
	}
	if fin {
		s.sentFIN = true
	}
	if !s.conn.hsComplete && s.conn.isClient && s.conn.engine.EarlyDataOffered() {
		s.earlyData = append(s.earlyData, frames...)
		s.conn.registerEarlyStream(s)
	}
	s.conn.sendInSpace(spcApp, frames)
	return nil
}

// replayEarlyData retransmits 0-RTT data as 1-RTT after a rejection.
func (s *Stream) replayEarlyData() {
	if len(s.earlyData) == 0 {
		return
	}
	frames := s.earlyData
	s.earlyData = nil
	s.conn.sendInSpace(spcApp, frames)
}

// receive ingests a STREAM frame, delivering in-order data to readers.
func (s *Stream) receive(f *frame) {
	if s.done {
		return
	}
	end := f.offset + uint64(len(f.data))
	if f.fin {
		s.finalSize = end
		s.hasFinal = true
	}
	if f.offset > s.recvNext {
		s.recvPending[f.offset] = f
	} else if end > s.recvNext {
		skip := s.recvNext - f.offset
		s.push(f.data[skip:])
	} else if len(f.data) == 0 && f.fin {
		// FIN-only frame at the current offset.
	}
	for {
		nf, ok := s.recvPending[s.recvNext]
		if !ok {
			break
		}
		delete(s.recvPending, s.recvNext)
		s.push(nf.data)
	}
	if s.hasFinal && s.recvNext >= s.finalSize {
		s.readQ.Close()
	}
}

func (s *Stream) push(data []byte) {
	s.recvNext += uint64(len(data))
	if len(data) > 0 {
		s.readQ.Push(data)
	}
}

// Read blocks for the next chunk; ok is false once the peer's FIN has
// been consumed or the stream shut down.
func (s *Stream) Read() ([]byte, bool) { return s.readQ.Pop() }

// ReadAll collects the stream's full content until FIN. ok is false if
// the stream was shut down before the FIN arrived.
func (s *Stream) ReadAll() ([]byte, bool) {
	var out []byte
	for {
		chunk, ok := s.readQ.Pop()
		if !ok {
			return out, s.hasFinal && s.recvNext >= s.finalSize
		}
		out = append(out, chunk...)
		if s.hasFinal && s.recvNext >= s.finalSize && s.readQ.Len() == 0 {
			return out, true
		}
	}
}

func (s *Stream) shutdown() {
	if s.done {
		return
	}
	s.done = true
	s.readQ.Close()
}
