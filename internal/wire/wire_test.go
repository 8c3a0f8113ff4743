package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPingRoundTrip(t *testing.T) {
	in := Ping{Seq: 42, SentNS: 123456789}
	buf := in.AppendTo(nil)
	if len(buf) != PingLen {
		t.Fatalf("encoded len = %d, want %d", len(buf), PingLen)
	}
	var out Ping
	if err := out.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestPongRoundTrip(t *testing.T) {
	in := Pong{Seq: 7, EchoNS: 99}
	var out Pong
	if err := out.Decode(in.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDataEncodeHeaderMatchesAppendTo(t *testing.T) {
	payload := bytes.Repeat([]byte{0x00}, 1176)
	in := Data2{SessionID: 77, Seq: 4242, SentNS: 999999, Payload: payload}
	want := in.AppendTo(nil)

	// EncodeHeader into a zero-padded pooled buffer must give the same bytes.
	got := make([]byte, DataHeaderLen+len(payload))
	in.EncodeHeader(got)
	if !bytes.Equal(got, want) {
		t.Error("EncodeHeader and AppendTo disagree on the wire bytes")
	}

	// Restamping must touch only the header region.
	got[DataHeaderLen] = 0xFF
	in.Seq = 4243
	in.EncodeHeader(got)
	if got[DataHeaderLen] != 0xFF {
		t.Error("EncodeHeader wrote past DataHeaderLen into the payload region")
	}
	var out Data2
	if err := out.Decode(got); err != nil {
		t.Fatal(err)
	}
	if out.Seq != 4243 {
		t.Errorf("restamped Seq = %d, want 4243", out.Seq)
	}
}

func TestDataEncodeHeaderAllocs(t *testing.T) {
	buf := make([]byte, DataHeaderLen)
	d := Data2{SessionID: 1, Seq: 2, SentNS: 3}
	if n := testing.AllocsPerRun(100, func() { d.EncodeHeader(buf) }); n != 0 {
		t.Errorf("EncodeHeader allocates %.1f per call, want 0", n)
	}
}

func TestDataPayloadAliasesBuffer(t *testing.T) {
	in := Data2{SessionID: 1, Payload: []byte{1, 2, 3}}
	buf := in.AppendTo(nil)
	var out Data2
	if err := out.Decode(buf); err != nil {
		t.Fatal(err)
	}
	buf[DataHeaderLen] = 9
	if out.Payload[0] != 9 {
		t.Error("Payload should alias the input buffer (zero-copy decode)")
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := (&Ping{Seq: 1}).AppendTo(nil)

	var p Ping
	if err := p.Decode(valid[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v, want ErrTruncated", err)
	}
	if err := p.Decode(valid[:PingLen-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short body: %v, want ErrTruncated", err)
	}

	bad := append([]byte(nil), valid...)
	bad[0] = 0
	if err := p.Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v, want ErrBadMagic", err)
	}

	badVer := append([]byte(nil), valid...)
	badVer[2] = 99
	if err := p.Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v, want ErrBadVersion", err)
	}

	var pong Pong
	if err := pong.Decode(valid); err == nil {
		t.Error("decoding Ping bytes as Pong should fail with ErrBadType")
	}
}

func TestAppendToExistingBuffer(t *testing.T) {
	// Messages append after existing content without clobbering it.
	prefix := []byte("prefix")
	buf := (&Pong{Seq: 5}).AppendTo(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatal("prefix clobbered")
	}
	var out Pong
	if err := out.Decode(buf[len(prefix):]); err != nil {
		t.Fatal(err)
	}
	if out.Seq != 5 {
		t.Errorf("Seq = %d", out.Seq)
	}
}

// TestRoundTripProperty property-checks encode→decode identity for the
// fixed-size messages.
func TestRoundTripProperty(t *testing.T) {
	f := func(id uint64, seq, rate, dur uint32) bool {
		r := Rate2{SessionID: id, RateKbps: rate, Seq: seq}
		var r2 Rate2
		if err := r2.Decode(r.AppendTo(nil)); err != nil || r2 != r {
			return false
		}
		bye := Bye{SessionID: id, ResultKbps: rate, DurationMS: dur}
		var b2 Bye
		if err := b2.Decode(bye.AppendTo(nil)); err != nil || b2 != bye {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateConversions(t *testing.T) {
	if KbpsFromMbps(300) != 300000 {
		t.Error("300 Mbps != 300000 Kbps")
	}
	if KbpsFromMbps(-1) != 0 {
		t.Error("negative rate should clamp to 0")
	}
	if KbpsFromMbps(1e12) != ^uint32(0) {
		t.Error("huge rate should saturate")
	}
	if math.Abs(MbpsFromKbps(123456)-123.456) > 1e-9 {
		t.Error("Kbps→Mbps wrong")
	}
}

func TestTypeStrings(t *testing.T) {
	for typ, want := range map[Type]string{
		TypePing: "ping", TypePong: "pong", TypeData2: "data2",
		TypeRate2: "rate2", Type(200): "unknown(200)",
		// The retired single-socket session frames name nothing.
		Type(3): "unknown(3)", Type(8): "unknown(8)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

type codec interface {
	AppendTo([]byte) []byte
	Decode([]byte) error
}

func TestV2RoundTrips(t *testing.T) {
	tok := MintToken(0xfeedface, 7, 99, 1700000000000)
	msgs := []struct {
		name    string
		msg     codec
		fresh   func() codec
		wantLen int
	}{
		{"Hello", &Hello{MinVersion: 1, MaxVersion: 2, Caps: ServerCaps, Nonce: 11}, func() codec { return new(Hello) }, HelloLen},
		{"HelloAck", &HelloAck{Version: 2, Caps: CapReports, Nonce: 11}, func() codec { return new(HelloAck) }, HelloAckLen},
		{"Setup", &Setup{SessionID: 5, RateKbps: 4000, Caps: CapReports, Token: tok}, func() codec { return new(Setup) }, SetupLen},
		{"SetupAck", &SetupAck{SessionID: 5, Caps: ServerCaps, ReportIntervalMS: 100}, func() codec { return new(SetupAck) }, SetupAckLen},
		{"SetupReject", &SetupReject{SessionID: 5, Code: RejectAuth}, func() codec { return new(SetupReject) }, SetupRejectLen},
		{"DataOpen", &DataOpen{SessionID: 5, Nonce: 22}, func() codec { return new(DataOpen) }, DataOpenLen},
		{"DataOpenAck", &DataOpenAck{SessionID: 5}, func() codec { return new(DataOpenAck) }, DataOpenAckLen},
		{"Rate2", &Rate2{SessionID: 5, RateKbps: 8000, Seq: 3}, func() codec { return new(Rate2) }, Rate2Len},
		{"Report", &Report{SessionID: 5, Seq: 9, SentBytes: 1 << 30, SentDatagrams: 12345}, func() codec { return new(Report) }, ReportLen},
		{"Bye", &Bye{SessionID: 5, ResultKbps: 41000, DurationMS: 2100, CrossingKbps: 41000, TrimmedKbps: 40500, PeakKbps: 43000, P90P80Kbps: 42000, Regime: 3}, func() codec { return new(Bye) }, ByeLen},
		{"ByeAck", &ByeAck{SessionID: 5}, func() codec { return new(ByeAck) }, ByeAckLen},
	}
	for _, m := range msgs {
		t.Run(m.name, func(t *testing.T) {
			buf := m.msg.AppendTo(nil)
			if len(buf) != m.wantLen {
				t.Fatalf("encoded length = %d, want %d", len(buf), m.wantLen)
			}
			ver, _, err := PeekVersion(buf)
			if err != nil || ver != Version2 {
				t.Fatalf("PeekVersion = %d, %v", ver, err)
			}
			decoded := m.fresh()
			if err := decoded.Decode(buf); err != nil {
				t.Fatalf("decode: %v", err)
			}
			again := decoded.AppendTo(nil)
			if !bytes.Equal(buf, again) {
				t.Fatalf("round trip not byte-identical:\n first=%x\nsecond=%x", buf, again)
			}
			// Appending to a non-empty buffer must not clobber the prefix.
			prefix := []byte{0xDE, 0xAD}
			appended := decoded.AppendTo(append([]byte(nil), prefix...))
			if !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], buf) {
				t.Fatal("AppendTo clobbered the destination prefix")
			}
		})
	}
}

func TestData2RoundTrip(t *testing.T) {
	in := Data2{SessionID: 77, Seq: 8, SentNS: 123456789, Payload: bytes.Repeat([]byte{0x5A}, 100)}
	buf := in.AppendTo(nil)
	if len(buf) != DataHeaderLen+len(in.Payload) {
		t.Fatalf("encoded length = %d", len(buf))
	}
	var out Data2
	if err := out.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if out.SessionID != in.SessionID || out.Seq != in.Seq || out.SentNS != in.SentNS ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestData2EncodeHeaderMatchesAppendTo(t *testing.T) {
	// The in-place header stamp used on pooled pacing buffers must produce
	// exactly the bytes AppendTo would.
	d := Data2{SessionID: 3, Seq: 17, SentNS: 999}
	appended := d.AppendTo(nil)
	inPlace := make([]byte, DataHeaderLen)
	d.EncodeHeader(inPlace)
	if !bytes.Equal(appended[:DataHeaderLen], inPlace) {
		t.Fatalf("EncodeHeader diverges from AppendTo:\nappend=%x\ninplace=%x", appended[:DataHeaderLen], inPlace)
	}
}

func TestPeekVersionAcceptsBoth(t *testing.T) {
	v1buf := (&Ping{Seq: 1}).AppendTo(nil)
	ver, typ, err := PeekVersion(v1buf)
	if err != nil || ver != Version || typ != TypePing {
		t.Errorf("v1: PeekVersion = %d, %v, %v", ver, typ, err)
	}
	v2buf := (&Hello{MinVersion: 1, MaxVersion: 2}).AppendTo(nil)
	ver, typ, err = PeekVersion(v2buf)
	if err != nil || ver != Version2 || typ != TypeHello {
		t.Errorf("v2: PeekVersion = %d, %v, %v", ver, typ, err)
	}

	if _, _, err := PeekVersion(v2buf[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), v2buf...)
	bad[2] = 7
	if _, _, err := PeekVersion(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v, want ErrBadVersion", err)
	}
	bad[0] = 0
	if _, _, err := PeekVersion(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v, want ErrBadMagic", err)
	}
}

// TestOnlyTwoVersionBytes pins the version gate: PeekVersion accepts version
// bytes 1 and 2 and nothing else, the selection probes decode only under 1,
// and every session frame decodes only under 2 — so a retired or future
// grammar cannot slip past a decoder by reusing a type value.
func TestOnlyTwoVersionBytes(t *testing.T) {
	hdr := (&Ping{Seq: 1}).AppendTo(nil)
	for v := 0; v < 256; v++ {
		hdr[2] = byte(v)
		_, _, err := PeekVersion(hdr)
		if ok := v == int(Version) || v == int(Version2); ok != (err == nil) {
			t.Errorf("PeekVersion(version %d) = %v", v, err)
		} else if err != nil && !errors.Is(err, ErrBadVersion) {
			t.Errorf("PeekVersion(version %d) = %v, want ErrBadVersion", v, err)
		}
	}
	for _, fr := range frames {
		m := fr.fresh()
		buf := m.AppendTo(nil) // the zero message: right version, right type
		for v := 0; v < 256; v++ {
			if want := buf[2]; byte(v) != want {
				bad := append([]byte(nil), buf...)
				bad[2] = byte(v)
				if err := m.Decode(bad); !errors.Is(err, ErrBadVersion) {
					t.Errorf("%s (version %d) under version %d: %v, want ErrBadVersion", fr.name, want, v, err)
				}
			}
		}
	}
}

func TestV2DecodeErrors(t *testing.T) {
	buf := (&Setup{SessionID: 1}).AppendTo(nil)
	var s Setup
	if err := s.Decode(buf[:SetupLen-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short body: %v, want ErrTruncated", err)
	}
	// A selection probe fed to a session-frame decoder is a version error,
	// not a type error: the version byte separates the grammars.
	ping := (&Ping{Seq: 1}).AppendTo(nil)
	if err := s.Decode(ping); !errors.Is(err, ErrBadVersion) {
		t.Errorf("ping frame: %v, want ErrBadVersion", err)
	}
	var ack SetupAck
	if err := ack.Decode(buf); !errors.Is(err, ErrBadType) {
		t.Errorf("wrong type: %v, want ErrBadType", err)
	}
}

func TestV2TypeStrings(t *testing.T) {
	for typ := TypeHello; typ <= TypeByeAck; typ++ {
		if s := typ.String(); s == "" || len(s) > 16 && s[:8] == "unknown(" {
			t.Errorf("Type(%d).String() = %q", typ, s)
		}
	}
	if s := Type(200).String(); s != "unknown(200)" {
		t.Errorf("unknown type: %q", s)
	}
}

func TestTokenMintVerify(t *testing.T) {
	const key = uint64(0x1122334455667788)
	tok := MintToken(key, 3, 42, 1700000000000)
	if !tok.Verify(key) {
		t.Fatal("freshly minted token fails verification")
	}
	if tok.Verify(key + 1) {
		t.Error("token verifies under the wrong key")
	}
	forged := tok
	forged.Seq++
	if forged.Verify(key) {
		t.Error("tampered seq still verifies")
	}
	forged = tok
	forged.Server++
	if forged.Verify(key) {
		t.Error("tampered server still verifies")
	}
	forged = tok
	forged.Expires += 60_000
	if forged.Verify(key) {
		t.Error("stretched expiry still verifies — the MAC must cover Expires")
	}
	if tok.IsZero() {
		t.Error("minted token reads as zero")
	}
	if !(Token{}).IsZero() {
		t.Error("zero token not recognised")
	}
}

func TestTokenExpiredAt(t *testing.T) {
	const deadline = uint64(1_700_000_000_000)
	tok := MintToken(9, 1, 2, deadline)
	if tok.ExpiredAt(deadline - 1) {
		t.Error("token expired before its deadline")
	}
	if tok.ExpiredAt(deadline) {
		t.Error("token expired at its deadline — the deadline instant is still valid")
	}
	if !tok.ExpiredAt(deadline + 1) {
		t.Error("token still valid past its deadline")
	}
	forever := MintToken(9, 1, 2, 0)
	if forever.ExpiredAt(^uint64(0)) {
		t.Error("zero-deadline token expired")
	}
}

func TestTokenStringRoundTrip(t *testing.T) {
	tok := MintToken(7, 2, 1001, 1700000000123)
	s := tok.String()
	if len(s) != 2*TokenLen {
		t.Fatalf("token hex length = %d, want %d", len(s), 2*TokenLen)
	}
	back, err := ParseToken(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != tok {
		t.Errorf("round trip: got %+v, want %+v", back, tok)
	}
	if _, err := ParseToken("zz"); err == nil {
		t.Error("ParseToken accepted junk")
	}
	if _, err := ParseToken("aabb"); err == nil {
		t.Error("ParseToken accepted a short token")
	}
}

func TestTokenMACDistribution(t *testing.T) {
	// Distinct (server, seq) pairs must yield distinct MACs under one key —
	// a smoke check that the SipHash rounds actually mix.
	seen := map[uint64]bool{}
	for server := uint32(0); server < 8; server++ {
		for seq := uint64(0); seq < 64; seq++ {
			mac := MintToken(1, server, seq, 0).MAC
			if seen[mac] {
				t.Fatalf("MAC collision at server=%d seq=%d", server, seq)
			}
			seen[mac] = true
		}
	}
}

func TestSipHashVectors(t *testing.T) {
	// Reference vectors from the SipHash paper (Appendix A): key
	// 000102…0f, messages 00, 0001, …; expected SipHash-2-4 outputs.
	k0 := uint64(0x0706050403020100)
	k1 := uint64(0x0f0e0d0c0b0a0908)
	want := []uint64{
		0x726fdb47dd0e0e31, // empty message
		0x74f839c593dc67fd, // 00
		0x0d6c8009d9a94f5a, // 00 01
		0x85676696d7fb7e2d, // 00 01 02
		0xcf2794e0277187b7, // …
		0x18765564cd99a68d,
		0xcbc9466e58fee3ce,
		0xab0200f58b01d137,
		0x93f5f5799a932462,
		0x9e0082df0ba9e4b0,
		0x7a5dbbc594ddb9f3,
		0xf4b32f46226bada7,
		0x751e8fbc860ee5fb,
	}
	msg := make([]byte, 0, len(want))
	for i, w := range want {
		if got := sipHash24(k0, k1, msg); got != w {
			t.Errorf("sipHash24(len=%d) = %#016x, want %#016x", i, got, w)
		}
		msg = append(msg, byte(i))
	}
}

func TestTokenPropertyRoundTrip(t *testing.T) {
	f := func(key uint64, server uint32, seq uint64, expires uint64) bool {
		tok := MintToken(key, server, seq, expires)
		back, err := ParseToken(tok.String())
		return err == nil && back == tok && back.Verify(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
