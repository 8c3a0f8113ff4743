// Package wire defines Swiftest's UDP probing protocol (§5.1: "we alter the
// transmission protocol from TCP to UDP … implement the customized bandwidth
// probing mechanism from scratch at the application layer").
//
// The protocol is a compact binary format with fixed-size headers, designed
// for allocation-free encode/decode in the packet hot path: messages encode
// into caller-provided buffers and decode into preallocated structs, in the
// style of gopacket's DecodingLayer.
//
// A test runs over two channels: a control channel (versioned handshake with
// capability negotiation, session setup keyed by a dispatcher-lease auth
// token, mid-test rate updates, per-interval server reports, and a final
// report carrying the full estimator family) and a data channel that carries
// nothing but paced probe datagrams — seq and send timestamp, padded to the
// probing packet size. The client uses one socket per channel, so a probe
// flood can never queue a rate update or a Report behind megabytes of
// buffered data; sessions are therefore keyed by session ID rather than by
// the peer 4-tuple, and the server learns the data-channel address from an
// explicit DataOpen sent on the data socket.
//
// Message flow for one bandwidth test:
//
//	client                               server
//	  | ---- Ping(seq) -----------------------> |      (server selection)
//	  | <--- Pong(seq, echo) ------------------ |
//	  | == control channel ==================== |
//	  | ---- Hello(vmin,vmax,caps) -----------> |      (negotiation, stateless)
//	  | <--- HelloAck(ver,caps) --------------- |
//	  | ---- Setup(sid, rate, caps, token) ---> |      (lease-auth admission)
//	  | <--- SetupAck(sid) / SetupReject(sid) - |
//	  | == data channel ======================= |
//	  | ---- DataOpen(sid) -------------------> |      (binds the 4-tuple)
//	  | <--- DataOpenAck(sid) ----------------- |
//	  | <--- Data2(sid, seq, ts, pad) --------- |      (paced at the probing rate)
//	  | == control channel ==================== |
//	  | ---- Rate2(sid, rate) ----------------> |      (rate escalation)
//	  | <--- Report(sid, sent bytes/dgrams) --- |      (per-interval reports)
//	  | ---- Bye(sid, result, estimates) -----> |
//	  | <--- ByeAck(sid) ---------------------- |
//
// Ping and Pong carry version byte 1, every session frame version byte 2;
// nothing else is spoken. Rates travel as Kbps in uint32, giving 4 Tbps of
// headroom with 1 Kbps resolution. Timestamps are nanoseconds since the Unix
// epoch in uint64.
package wire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// Magic identifies Swiftest datagrams. Version is the revision byte of the
// selection probes (Ping, Pong); Version2 that of every session frame.
const (
	Magic    uint16 = 0x5754 // "WT"
	Version  uint8  = 1
	Version2 uint8  = 2
)

// Type enumerates protocol messages.
type Type uint8

// Protocol message types. Values 3–8 belonged to the retired single-socket
// session frames and are never reassigned.
const (
	TypePing Type = 1
	TypePong Type = 2
)

const (
	TypeHello Type = 9 + iota
	TypeHelloAck
	TypeSetup
	TypeSetupAck
	TypeSetupReject
	TypeDataOpen
	TypeDataOpenAck
	TypeRate2
	TypeReport
	TypeData2
	TypeBye
	TypeByeAck
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "hello-ack"
	case TypeSetup:
		return "setup"
	case TypeSetupAck:
		return "setup-ack"
	case TypeSetupReject:
		return "setup-reject"
	case TypeDataOpen:
		return "data-open"
	case TypeDataOpenAck:
		return "data-open-ack"
	case TypeRate2:
		return "rate2"
	case TypeReport:
		return "report"
	case TypeData2:
		return "data2"
	case TypeBye:
		return "bye"
	case TypeByeAck:
		return "bye-ack"
	}
	return fmt.Sprintf("unknown(%d)", uint8(t))
}

// HeaderLen is the fixed prefix of every message: magic(2) version(1)
// type(1).
const HeaderLen = 4

// Errors returned by Decode functions.
var (
	ErrTruncated  = errors.New("wire: message truncated")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unexpected message type")
)

func putHeader(b []byte, ver uint8, t Type) {
	binary.BigEndian.PutUint16(b[0:2], Magic)
	b[2] = ver
	b[3] = uint8(t)
}

// PeekVersion validates the common header of b and returns its version byte
// and message type — the dispatch point for a socket that carries both the
// selection probes and session frames.
func PeekVersion(b []byte) (uint8, Type, error) {
	if len(b) < HeaderLen {
		return 0, 0, ErrTruncated
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return 0, 0, ErrBadMagic
	}
	if b[2] != Version && b[2] != Version2 {
		return 0, 0, ErrBadVersion
	}
	return b[2], Type(b[3]), nil
}

func checkHeader(b []byte, wantVer uint8, want Type, bodyLen int) error {
	ver, t, err := PeekVersion(b)
	if err != nil {
		return err
	}
	if ver != wantVer {
		return fmt.Errorf("%w: got %d, want %d", ErrBadVersion, ver, wantVer)
	}
	if t != want {
		return fmt.Errorf("%w: got %v, want %v", ErrBadType, t, want)
	}
	if len(b) < HeaderLen+bodyLen {
		return ErrTruncated
	}
	return nil
}

// Ping is the latency probe used during server selection (§2, §5.1).
type Ping struct {
	Seq    uint32
	SentNS uint64 // client send time, echoed by the server
}

// PingLen is the encoded size of a Ping.
const PingLen = HeaderLen + 12

// AppendTo encodes p into b, which must have at least PingLen capacity from
// its length; it returns the extended slice.
func (p *Ping) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, PingLen)...)
	putHeader(b[off:], Version, TypePing)
	binary.BigEndian.PutUint32(b[off+4:], p.Seq)
	binary.BigEndian.PutUint64(b[off+8:], p.SentNS)
	return b
}

// Decode parses b into p.
func (p *Ping) Decode(b []byte) error {
	if err := checkHeader(b, Version, TypePing, 12); err != nil {
		return err
	}
	p.Seq = binary.BigEndian.Uint32(b[4:])
	p.SentNS = binary.BigEndian.Uint64(b[8:])
	return nil
}

// Pong answers a Ping, echoing its sequence number and send time.
type Pong struct {
	Seq    uint32
	EchoNS uint64
}

// PongLen is the encoded size of a Pong.
const PongLen = HeaderLen + 12

// AppendTo encodes p into b and returns the extended slice.
func (p *Pong) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, PongLen)...)
	putHeader(b[off:], Version, TypePong)
	binary.BigEndian.PutUint32(b[off+4:], p.Seq)
	binary.BigEndian.PutUint64(b[off+8:], p.EchoNS)
	return b
}

// Decode parses b into p.
func (p *Pong) Decode(b []byte) error {
	if err := checkHeader(b, Version, TypePong, 12); err != nil {
		return err
	}
	p.Seq = binary.BigEndian.Uint32(b[4:])
	p.EchoNS = binary.BigEndian.Uint64(b[8:])
	return nil
}

// Capability bits: offered in Hello, intersected in HelloAck, carried into
// the session by Setup. A capability is active for the session only when
// both sides advertise it.
const (
	// CapReports: the server sends per-interval Report messages on the
	// control channel (cumulative paced bytes and datagrams), so the client
	// can compute delivery loss without clock synchronisation.
	CapReports uint32 = 1 << 0
	// CapEstimates: the client's final Bye carries the full estimator family
	// (crossing, trimmed mean, sustained peak, P90–P80) and the BDP regime
	// classification, not just the headline figure.
	CapEstimates uint32 = 1 << 1
)

// ServerCaps is the capability set this implementation's server advertises.
const ServerCaps = CapReports | CapEstimates

// SetupReject codes.
const (
	// RejectAuth: the Setup token failed lease authentication.
	RejectAuth uint8 = 1
	// RejectBusy: the server cannot admit another session.
	RejectBusy uint8 = 2
)

// Token authenticates a session against the fleet dispatcher's lease: the
// dispatcher mints it from (server, lease seq, expiry) under a shared key,
// and any server holding the key verifies it without state. The MAC is
// SipHash-2-4, so a client cannot forge admission — or stretch a lease's
// lifetime — without the fleet key.
type Token struct {
	Server  uint32 // fleet server ID the lease admits the client to
	Seq     uint64 // lease sequence number
	Expires uint64 // unix-ms expiry deadline; 0 means the token never expires
	MAC     uint64 // SipHash-2-4 over (Server, Seq, Expires) under the fleet key
}

// TokenLen is the encoded size of a Token.
const TokenLen = 28

// MintToken authenticates (server, seq) under key until expires (unix-ms; 0
// mints a token that never expires). A deployment's dispatcher and servers
// share the key out of band (CLI flag, config file).
func MintToken(key uint64, server uint32, seq uint64, expires uint64) Token {
	return Token{Server: server, Seq: seq, Expires: expires, MAC: tokenMAC(key, server, seq, expires)}
}

// Verify reports whether t's MAC is valid under key. Expiry is a separate
// check (ExpiredAt) — the MAC covers Expires, so a stale token cannot be
// refreshed by rewriting the deadline.
func (t Token) Verify(key uint64) bool {
	return t.MAC == tokenMAC(key, t.Server, t.Seq, t.Expires)
}

// ExpiredAt reports whether t's lease deadline has passed at nowMS (unix
// milliseconds). Tokens minted with Expires 0 never expire.
func (t Token) ExpiredAt(nowMS uint64) bool {
	return t.Expires != 0 && nowMS > t.Expires
}

// IsZero reports whether t is the absent token.
func (t Token) IsZero() bool { return t == Token{} }

// String encodes t as 56 hex characters, the form it travels in JSON control
// planes and CLI flags.
func (t Token) String() string {
	var b [TokenLen]byte
	t.put(b[:])
	return hex.EncodeToString(b[:])
}

// ParseToken decodes a Token from its hex form.
func ParseToken(s string) (Token, error) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != TokenLen {
		return Token{}, fmt.Errorf("wire: bad token %q", s)
	}
	var t Token
	t.get(raw)
	return t, nil
}

func (t Token) put(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], t.Server)
	binary.BigEndian.PutUint64(b[4:12], t.Seq)
	binary.BigEndian.PutUint64(b[12:20], t.Expires)
	binary.BigEndian.PutUint64(b[20:28], t.MAC)
}

func (t *Token) get(b []byte) {
	t.Server = binary.BigEndian.Uint32(b[0:4])
	t.Seq = binary.BigEndian.Uint64(b[4:12])
	t.Expires = binary.BigEndian.Uint64(b[12:20])
	t.MAC = binary.BigEndian.Uint64(b[20:28])
}

// tokenMAC computes SipHash-2-4 over the 20-byte (server, seq, expires)
// message with the 128-bit key (key, key ^ sipKeySplit).
func tokenMAC(key uint64, server uint32, seq uint64, expires uint64) uint64 {
	var msg [20]byte
	binary.LittleEndian.PutUint32(msg[0:4], server)
	binary.LittleEndian.PutUint64(msg[4:12], seq)
	binary.LittleEndian.PutUint64(msg[12:20], expires)
	return sipHash24(key, key^sipKeySplit, msg[:])
}

// sipKeySplit derives the second SipHash key word from the single configured
// key, so operators manage one 64-bit secret.
const sipKeySplit = 0x9e3779b97f4a7c15

// sipHash24 is SipHash-2-4 (Aumasson & Bernstein), the standard short-input
// keyed hash. Implemented locally to keep the repository dependency-free.
func sipHash24(k0, k1 uint64, msg []byte) uint64 {
	v0 := k0 ^ 0x736f6d6570736575
	v1 := k1 ^ 0x646f72616e646f6d
	v2 := k0 ^ 0x6c7967656e657261
	v3 := k1 ^ 0x7465646279746573

	round := func() {
		v0 += v1
		v1 = v1<<13 | v1>>51
		v1 ^= v0
		v0 = v0<<32 | v0>>32
		v2 += v3
		v3 = v3<<16 | v3>>48
		v3 ^= v2
		v0 += v3
		v3 = v3<<21 | v3>>43
		v3 ^= v0
		v2 += v1
		v1 = v1<<17 | v1>>47
		v1 ^= v2
		v2 = v2<<32 | v2>>32
	}

	n := len(msg)
	for len(msg) >= 8 {
		m := binary.LittleEndian.Uint64(msg)
		v3 ^= m
		round()
		round()
		v0 ^= m
		msg = msg[8:]
	}
	var last uint64 = uint64(n) << 56
	for i, b := range msg {
		last |= uint64(b) << (8 * i)
	}
	v3 ^= last
	round()
	round()
	v0 ^= last
	v2 ^= 0xff
	round()
	round()
	round()
	round()
	return v0 ^ v1 ^ v2 ^ v3
}

// Hello opens version negotiation on the control channel: the client offers
// the version range it speaks and the capabilities it wants.
type Hello struct {
	MinVersion uint8
	MaxVersion uint8
	Caps       uint32
	Nonce      uint64 // echoed in HelloAck, pairing answer with question
}

// HelloLen is the encoded size of a Hello.
const HelloLen = HeaderLen + 14

// AppendTo encodes h into b and returns the extended slice.
func (h *Hello) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, HelloLen)...)
	putHeader(b[off:], Version2, TypeHello)
	b[off+4] = h.MinVersion
	b[off+5] = h.MaxVersion
	binary.BigEndian.PutUint32(b[off+6:], h.Caps)
	binary.BigEndian.PutUint64(b[off+10:], h.Nonce)
	return b
}

// Decode parses b into h.
func (h *Hello) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeHello, 14); err != nil {
		return err
	}
	h.MinVersion = b[4]
	h.MaxVersion = b[5]
	h.Caps = binary.BigEndian.Uint32(b[6:])
	h.Nonce = binary.BigEndian.Uint64(b[10:])
	return nil
}

// HelloAck answers a Hello with the selected version and the capability
// intersection.
type HelloAck struct {
	Version uint8
	Caps    uint32
	Nonce   uint64
}

// HelloAckLen is the encoded size of a HelloAck.
const HelloAckLen = HeaderLen + 13

// AppendTo encodes h into b and returns the extended slice.
func (h *HelloAck) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, HelloAckLen)...)
	putHeader(b[off:], Version2, TypeHelloAck)
	b[off+4] = h.Version
	binary.BigEndian.PutUint32(b[off+5:], h.Caps)
	binary.BigEndian.PutUint64(b[off+9:], h.Nonce)
	return b
}

// Decode parses b into h.
func (h *HelloAck) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeHelloAck, 13); err != nil {
		return err
	}
	h.Version = b[4]
	h.Caps = binary.BigEndian.Uint32(b[5:])
	h.Nonce = binary.BigEndian.Uint64(b[9:])
	return nil
}

// Setup starts a session on the control channel, authenticated by the
// dispatcher-lease token (all-zero on open deployments). Caps echoes the
// HelloAck's capability set, so the server keeps nothing between the two
// frames: the session runs with Caps & ServerCaps.
type Setup struct {
	SessionID uint64
	RateKbps  uint32
	Caps      uint32
	Token     Token
}

// SetupLen is the encoded size of a Setup.
const SetupLen = HeaderLen + 16 + TokenLen

// AppendTo encodes s into b and returns the extended slice.
func (s *Setup) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, SetupLen)...)
	putHeader(b[off:], Version2, TypeSetup)
	binary.BigEndian.PutUint64(b[off+4:], s.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], s.RateKbps)
	binary.BigEndian.PutUint32(b[off+16:], s.Caps)
	s.Token.put(b[off+20:])
	return b
}

// Decode parses b into s.
func (s *Setup) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeSetup, 16+TokenLen); err != nil {
		return err
	}
	s.SessionID = binary.BigEndian.Uint64(b[4:])
	s.RateKbps = binary.BigEndian.Uint32(b[12:])
	s.Caps = binary.BigEndian.Uint32(b[16:])
	s.Token.get(b[20:])
	return nil
}

// SetupAck admits a session: the active capability set and the cadence of
// per-interval Reports (when CapReports is active).
type SetupAck struct {
	SessionID        uint64
	Caps             uint32
	ReportIntervalMS uint32
}

// SetupAckLen is the encoded size of a SetupAck.
const SetupAckLen = HeaderLen + 16

// AppendTo encodes s into b and returns the extended slice.
func (s *SetupAck) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, SetupAckLen)...)
	putHeader(b[off:], Version2, TypeSetupAck)
	binary.BigEndian.PutUint64(b[off+4:], s.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], s.Caps)
	binary.BigEndian.PutUint32(b[off+16:], s.ReportIntervalMS)
	return b
}

// Decode parses b into s.
func (s *SetupAck) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeSetupAck, 16); err != nil {
		return err
	}
	s.SessionID = binary.BigEndian.Uint64(b[4:])
	s.Caps = binary.BigEndian.Uint32(b[12:])
	s.ReportIntervalMS = binary.BigEndian.Uint32(b[16:])
	return nil
}

// SetupReject refuses a session (RejectAuth, RejectBusy). Explicit rejection
// lets the client distinguish a policy refusal from packet loss instead of
// burning its handshake retry budget.
type SetupReject struct {
	SessionID uint64
	Code      uint8
}

// SetupRejectLen is the encoded size of a SetupReject.
const SetupRejectLen = HeaderLen + 9

// AppendTo encodes s into b and returns the extended slice.
func (s *SetupReject) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, SetupRejectLen)...)
	putHeader(b[off:], Version2, TypeSetupReject)
	binary.BigEndian.PutUint64(b[off+4:], s.SessionID)
	b[off+12] = s.Code
	return b
}

// Decode parses b into s.
func (s *SetupReject) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeSetupReject, 9); err != nil {
		return err
	}
	s.SessionID = binary.BigEndian.Uint64(b[4:])
	s.Code = b[12]
	return nil
}

// DataOpen is the first datagram on the data channel: it binds the data
// socket's 4-tuple to the session, telling the server where to pace probe
// traffic.
type DataOpen struct {
	SessionID uint64
	Nonce     uint64
}

// DataOpenLen is the encoded size of a DataOpen.
const DataOpenLen = HeaderLen + 16

// AppendTo encodes d into b and returns the extended slice.
func (d *DataOpen) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, DataOpenLen)...)
	putHeader(b[off:], Version2, TypeDataOpen)
	binary.BigEndian.PutUint64(b[off+4:], d.SessionID)
	binary.BigEndian.PutUint64(b[off+12:], d.Nonce)
	return b
}

// Decode parses b into d.
func (d *DataOpen) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeDataOpen, 16); err != nil {
		return err
	}
	d.SessionID = binary.BigEndian.Uint64(b[4:])
	d.Nonce = binary.BigEndian.Uint64(b[12:])
	return nil
}

// DataOpenAck confirms the data-channel binding, sent to the data socket.
type DataOpenAck struct {
	SessionID uint64
}

// DataOpenAckLen is the encoded size of a DataOpenAck.
const DataOpenAckLen = HeaderLen + 8

// AppendTo encodes d into b and returns the extended slice.
func (d *DataOpenAck) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, DataOpenAckLen)...)
	putHeader(b[off:], Version2, TypeDataOpenAck)
	binary.BigEndian.PutUint64(b[off+4:], d.SessionID)
	return b
}

// Decode parses b into d.
func (d *DataOpenAck) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeDataOpenAck, 8); err != nil {
		return err
	}
	d.SessionID = binary.BigEndian.Uint64(b[4:])
	return nil
}

// Rate2 retunes the session's pacing rate on the control channel.
type Rate2 struct {
	SessionID uint64
	RateKbps  uint32
	Seq       uint32 // monotonically increasing; stale updates are ignored
}

// Rate2Len is the encoded size of a Rate2.
const Rate2Len = HeaderLen + 16

// AppendTo encodes r into b and returns the extended slice.
func (r *Rate2) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, Rate2Len)...)
	putHeader(b[off:], Version2, TypeRate2)
	binary.BigEndian.PutUint64(b[off+4:], r.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], r.RateKbps)
	binary.BigEndian.PutUint32(b[off+16:], r.Seq)
	return b
}

// Decode parses b into r.
func (r *Rate2) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeRate2, 16); err != nil {
		return err
	}
	r.SessionID = binary.BigEndian.Uint64(b[4:])
	r.RateKbps = binary.BigEndian.Uint32(b[12:])
	r.Seq = binary.BigEndian.Uint32(b[16:])
	return nil
}

// Report is the server's per-interval account on the control channel:
// cumulative paced bytes and datagrams for the session. The client subtracts
// what it received to observe delivery loss — no clock synchronisation
// needed, cumulative counters make every Report self-contained under loss.
type Report struct {
	SessionID     uint64
	Seq           uint32
	SentBytes     uint64
	SentDatagrams uint32
}

// ReportLen is the encoded size of a Report.
const ReportLen = HeaderLen + 24

// AppendTo encodes r into b and returns the extended slice.
func (r *Report) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, ReportLen)...)
	putHeader(b[off:], Version2, TypeReport)
	binary.BigEndian.PutUint64(b[off+4:], r.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], r.Seq)
	binary.BigEndian.PutUint64(b[off+16:], r.SentBytes)
	binary.BigEndian.PutUint32(b[off+24:], r.SentDatagrams)
	return b
}

// Decode parses b into r.
func (r *Report) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeReport, 24); err != nil {
		return err
	}
	r.SessionID = binary.BigEndian.Uint64(b[4:])
	r.Seq = binary.BigEndian.Uint32(b[12:])
	r.SentBytes = binary.BigEndian.Uint64(b[16:])
	r.SentDatagrams = binary.BigEndian.Uint32(b[24:])
	return nil
}

// DataHeaderLen is the non-payload prefix of a Data2 message.
const DataHeaderLen = HeaderLen + 20

// Data2 is one paced probe datagram on the data channel: session ID, seq,
// send timestamp, padding — nothing else. The payload is padding that brings
// the datagram to the probing packet size; its content is arbitrary.
type Data2 struct {
	SessionID uint64
	Seq       uint32
	SentNS    uint64
	Payload   []byte // decoded in place: aliases the input buffer
}

// AppendTo encodes d (header plus payload) into b and returns the extended
// slice.
func (d *Data2) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, DataHeaderLen)...)
	putHeader(b[off:], Version2, TypeData2)
	binary.BigEndian.PutUint64(b[off+4:], d.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], d.Seq)
	binary.BigEndian.PutUint64(b[off+16:], d.SentNS)
	return append(b, d.Payload...)
}

// EncodeHeader stamps d's header fields into the first DataHeaderLen bytes
// of b in place, leaving the rest of b — the payload region — untouched.
// This is the zero-copy counterpart of AppendTo for pooled buffers whose
// payload padding is written once at allocation: the pacing hot path restamps
// only the 24 header bytes per datagram. b must be at least DataHeaderLen
// long; d.Payload is ignored.
func (d *Data2) EncodeHeader(b []byte) {
	putHeader(b, Version2, TypeData2)
	binary.BigEndian.PutUint64(b[4:], d.SessionID)
	binary.BigEndian.PutUint32(b[12:], d.Seq)
	binary.BigEndian.PutUint64(b[16:], d.SentNS)
}

// Decode parses b into d. Payload aliases b; copy it if it must outlive the
// buffer.
func (d *Data2) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeData2, 20); err != nil {
		return err
	}
	d.SessionID = binary.BigEndian.Uint64(b[4:])
	d.Seq = binary.BigEndian.Uint32(b[12:])
	d.SentNS = binary.BigEndian.Uint64(b[16:])
	d.Payload = b[DataHeaderLen:]
	return nil
}

// Bye ends a session, reporting the headline result plus — when
// CapEstimates is active — the full estimator family and the BDP regime
// classification, feeding the server's model-refresh pipeline (§5.1) a
// richer per-test view than the headline figure alone.
type Bye struct {
	SessionID    uint64
	ResultKbps   uint32
	DurationMS   uint32
	CrossingKbps uint32
	TrimmedKbps  uint32
	PeakKbps     uint32
	P90P80Kbps   uint32
	Regime       uint8
}

// ByeLen is the encoded size of a Bye.
const ByeLen = HeaderLen + 33

// AppendTo encodes f into b and returns the extended slice.
func (f *Bye) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, ByeLen)...)
	putHeader(b[off:], Version2, TypeBye)
	binary.BigEndian.PutUint64(b[off+4:], f.SessionID)
	binary.BigEndian.PutUint32(b[off+12:], f.ResultKbps)
	binary.BigEndian.PutUint32(b[off+16:], f.DurationMS)
	binary.BigEndian.PutUint32(b[off+20:], f.CrossingKbps)
	binary.BigEndian.PutUint32(b[off+24:], f.TrimmedKbps)
	binary.BigEndian.PutUint32(b[off+28:], f.PeakKbps)
	binary.BigEndian.PutUint32(b[off+32:], f.P90P80Kbps)
	b[off+36] = f.Regime
	return b
}

// Decode parses b into f.
func (f *Bye) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeBye, 33); err != nil {
		return err
	}
	f.SessionID = binary.BigEndian.Uint64(b[4:])
	f.ResultKbps = binary.BigEndian.Uint32(b[12:])
	f.DurationMS = binary.BigEndian.Uint32(b[16:])
	f.CrossingKbps = binary.BigEndian.Uint32(b[20:])
	f.TrimmedKbps = binary.BigEndian.Uint32(b[24:])
	f.PeakKbps = binary.BigEndian.Uint32(b[28:])
	f.P90P80Kbps = binary.BigEndian.Uint32(b[32:])
	f.Regime = b[36]
	return nil
}

// ByeAck acknowledges a Bye; the session is closed on receipt.
type ByeAck struct {
	SessionID uint64
}

// ByeAckLen is the encoded size of a ByeAck.
const ByeAckLen = HeaderLen + 8

// AppendTo encodes f into b and returns the extended slice.
func (f *ByeAck) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, ByeAckLen)...)
	putHeader(b[off:], Version2, TypeByeAck)
	binary.BigEndian.PutUint64(b[off+4:], f.SessionID)
	return b
}

// Decode parses b into f.
func (f *ByeAck) Decode(b []byte) error {
	if err := checkHeader(b, Version2, TypeByeAck, 8); err != nil {
		return err
	}
	f.SessionID = binary.BigEndian.Uint64(b[4:])
	return nil
}

// KbpsFromMbps converts a rate in Mbps to the wire's Kbps representation,
// saturating rather than overflowing.
func KbpsFromMbps(mbps float64) uint32 {
	if mbps <= 0 {
		return 0
	}
	k := mbps * 1000
	if k >= float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(k)
}

// MbpsFromKbps converts the wire's Kbps representation back to Mbps.
func MbpsFromKbps(kbps uint32) float64 { return float64(kbps) / 1000 }
