package wire

import (
	"bytes"
	"errors"
	"testing"
)

// frames lists a fresh decoder for every message the protocol speaks.
var frames = []struct {
	name  string
	fresh func() codec
}{
	{"Ping", func() codec { return new(Ping) }},
	{"Pong", func() codec { return new(Pong) }},
	{"Hello", func() codec { return new(Hello) }},
	{"HelloAck", func() codec { return new(HelloAck) }},
	{"Setup", func() codec { return new(Setup) }},
	{"SetupAck", func() codec { return new(SetupAck) }},
	{"SetupReject", func() codec { return new(SetupReject) }},
	{"DataOpen", func() codec { return new(DataOpen) }},
	{"DataOpenAck", func() codec { return new(DataOpenAck) }},
	{"Rate2", func() codec { return new(Rate2) }},
	{"Report", func() codec { return new(Report) }},
	{"Data2", func() codec { return new(Data2) }},
	{"Bye", func() codec { return new(Bye) }},
	{"ByeAck", func() codec { return new(ByeAck) }},
}

// FuzzDecode feeds arbitrary bytes to every decoder: none may panic, and any
// input a decoder accepts must re-encode to an equivalent message. Run with
// `go test -fuzz=FuzzDecode ./internal/wire/` for continuous fuzzing; the
// seed corpus alone runs as a regular test.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x57, 0x54, 1, 1})
	f.Add((&Ping{Seq: 1, SentNS: 2}).AppendTo(nil))
	f.Add((&Pong{Seq: 3, EchoNS: 4}).AppendTo(nil))
	f.Add((&HelloAck{Version: 2, Caps: 5, Nonce: 6}).AppendTo(nil))
	f.Add((&SetupAck{SessionID: 7, Caps: 8, ReportIntervalMS: 9}).AppendTo(nil))
	f.Add((&SetupReject{SessionID: 10, Code: RejectBusy}).AppendTo(nil))
	f.Add((&DataOpen{SessionID: 11, Nonce: 12}).AppendTo(nil))
	f.Add((&DataOpenAck{SessionID: 14}).AppendTo(nil))
	f.Add((&ByeAck{SessionID: 17}).AppendTo(nil))
	f.Add((&Hello{MinVersion: 1, MaxVersion: 2, Caps: 3, Nonce: 18}).AppendTo(nil))
	f.Add((&Setup{SessionID: 19, RateKbps: 20, Caps: 3, Token: MintToken(1, 2, 3, 4)}).AppendTo(nil))
	f.Add((&Rate2{SessionID: 21, RateKbps: 22, Seq: 23}).AppendTo(nil))
	f.Add((&Report{SessionID: 24, Seq: 25, SentBytes: 26, SentDatagrams: 27}).AppendTo(nil))
	f.Add((&Data2{SessionID: 28, Seq: 29, SentNS: 30, Payload: []byte{4, 5}}).AppendTo(nil))
	f.Add((&Bye{SessionID: 31, ResultKbps: 32, DurationMS: 33, Regime: 2}).AppendTo(nil))

	f.Fuzz(func(t *testing.T, b []byte) {
		// PeekVersion must never panic and must reject anything shorter
		// than the header.
		_, typ, err := PeekVersion(b)
		if err != nil {
			if len(b) >= HeaderLen && errors.Is(err, ErrTruncated) {
				t.Fatalf("ErrTruncated on %d-byte input", len(b))
			}
			return
		}
		_ = typ.String()

		for _, fr := range frames {
			m := fr.fresh()
			if m.Decode(b) != nil {
				continue
			}
			round := m.AppendTo(nil)
			again := fr.fresh()
			if again.Decode(round) != nil || !bytes.Equal(again.AppendTo(nil), round) {
				t.Fatalf("%s decode/encode not idempotent", fr.name)
			}
		}
	})
}

// FuzzRoundTrip drives every message type from structured field values:
// encode → decode → encode must be byte-identical in both directions, so a
// lossy field (truncated width, swapped endianness, forgotten payload
// length) cannot hide behind a tolerant decoder. Together with FuzzDecode
// (arbitrary bytes in) the CI fuzz steps exercise both halves of the codec.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(2), uint64(3), uint32(4), uint32(5), []byte("pad"))
	f.Add(uint64(0), uint32(0), uint64(0), uint32(0), uint32(0), []byte{})
	f.Add(^uint64(0), ^uint32(0), ^uint64(0), ^uint32(0), ^uint32(0), bytes.Repeat([]byte{0xA5}, 1183))

	f.Fuzz(func(t *testing.T, id uint64, seq uint32, ns uint64, kbps uint32, dur uint32, payload []byte) {
		tok := Token{Server: seq, Seq: id, Expires: ns, MAC: ^id}
		msgs := []codec{
			&Ping{Seq: seq, SentNS: ns},
			&Pong{Seq: seq, EchoNS: ns},
			&Hello{MinVersion: uint8(seq), MaxVersion: uint8(dur), Caps: kbps, Nonce: ns},
			&HelloAck{Version: uint8(seq), Caps: kbps, Nonce: ns},
			&Setup{SessionID: id, RateKbps: kbps, Caps: dur, Token: tok},
			&SetupAck{SessionID: id, Caps: kbps, ReportIntervalMS: dur},
			&SetupReject{SessionID: id, Code: uint8(seq)},
			&DataOpen{SessionID: id, Nonce: ns},
			&DataOpenAck{SessionID: id},
			&Rate2{SessionID: id, RateKbps: kbps, Seq: seq},
			&Report{SessionID: id, Seq: seq, SentBytes: ns, SentDatagrams: dur},
			&Data2{SessionID: id, Seq: seq, SentNS: ns, Payload: payload},
			&Bye{SessionID: id, ResultKbps: kbps, DurationMS: dur, CrossingKbps: seq,
				TrimmedKbps: kbps, PeakKbps: dur, P90P80Kbps: seq, Regime: uint8(dur)},
			&ByeAck{SessionID: id},
		}
		for i, msg := range msgs {
			name := frames[i].name
			first := msg.AppendTo(nil)
			decoded := frames[i].fresh()
			if err := decoded.Decode(first); err != nil {
				t.Fatalf("%s: decoding own encoding: %v", name, err)
			}
			second := decoded.AppendTo(nil)
			if !bytes.Equal(first, second) {
				t.Fatalf("%s: round trip not byte-identical:\n first=%x\nsecond=%x", name, first, second)
			}
			// Appending to a dirty, non-empty buffer must not change the
			// encoded suffix.
			prefix := []byte{0xDE, 0xAD}
			appended := decoded.AppendTo(append([]byte(nil), prefix...))
			if !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], first) {
				t.Fatalf("%s: AppendTo clobbered the destination prefix", name)
			}
		}
	})
}
