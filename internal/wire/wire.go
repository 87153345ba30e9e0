// Package wire frames the private-retrieval protocol messages for
// transport over a byte stream: the embellished query the client sends
// (term ids with encrypted flags plus the Benaloh public key) and the
// candidate response the server returns (document ids with encrypted
// scores). The paper's protocol is client-server; this package is what
// turns the in-process Algorithms 3-5 into a deployable service.
//
// Framing: every message is a 4-byte little-endian payload length, a
// type byte, and the body. Integers are vbyte-coded; big integers are
// length-prefixed big-endian bytes. Lengths are validated against hard
// caps before allocation, so a hostile peer cannot force huge
// allocations with a forged header.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

	"embellish/internal/benaloh"
	"embellish/internal/core"
	"embellish/internal/index"
	"embellish/internal/vbyte"
	"embellish/internal/wordnet"
)

// Message types.
const (
	TypeQuery         = 1
	TypeResponse      = 2
	TypeError         = 3
	TypeBatchQuery    = 4
	TypeBatchResponse = 5
)

// Caps on attacker-controlled sizes.
const (
	MaxFrame      = 64 << 20 // 64 MiB per message
	maxEntries    = 1 << 22
	maxCandidates = 1 << 24
	maxIntBytes   = 1 << 16 // 512 Kbit moduli are far beyond practical KeyLen
)

// The fewest body bytes a counted element can occupy. The ranking
// decoders refuse a count the rest of the body cannot hold before they
// allocate from it, as the PIR decoders do, so what a frame makes a
// decoder allocate is a small multiple of the frame's own length and
// never a forged count's. Neither floor refuses a body the element loop
// would accept: a query flag lies in (0, N) — an id byte, a length byte
// and at least one magnitude byte — while the zero ciphertext of a
// response is an id byte and a bare length byte (Algorithm 5 is what
// refuses it, naming the document).
const (
	minEntryBytes     = 3
	minCandidateBytes = 2
)

// WriteQuery frames and writes an embellished query.
func WriteQuery(w io.Writer, q *core.Query) error {
	return writeQueryTyped(w, TypeQuery, q)
}

// writeQueryTyped writes one query frame under the given type byte —
// the body layout is identical for genuine (TypeQuery) and decoy
// (TypeDecoyQuery) frames, which is the decoy indistinguishability
// contract: only the type byte differs.
func writeQueryTyped(w io.Writer, typ byte, q *core.Query) error {
	if q == nil || q.Pub == nil {
		return errors.New("wire: nil query")
	}
	frame := newFrame(typ, bigsSize(q.Pub.N, q.Pub.G, q.Pub.R)+vbyte.MaxLen+len(q.Entries)*entryBytes(q.Pub))
	frame = appendKey(frame, q.Pub)
	return writeFrame(w, appendEntries(frame, q.Entries))
}

// appendKey appends the public key a ranking query travels under.
func appendKey(frame []byte, pub *benaloh.PublicKey) []byte {
	return appendBig(appendBig(appendBig(frame, pub.N), pub.G), pub.R)
}

// appendEntries appends one query's entry count and its (term, flag)
// entries.
func appendEntries(frame []byte, entries []core.QueryEntry) []byte {
	frame = vbyte.Append(frame, uint64(len(entries)))
	for _, e := range entries {
		frame = vbyte.Append(frame, uint64(e.Term))
		frame = appendBig(frame, e.Flag)
	}
	return frame
}

// entryBytes bounds the bytes a query entry under pub spends: a term id
// (under 2^31, five vbyte bytes at most) and a flag in (0, N).
func entryBytes(pub *benaloh.PublicKey) int { return 5 + bigSize(pub.N) }

// WriteResponse frames and writes a candidate response: the engine's
// candidate set and the stats figures that cross the wire.
func WriteResponse(w io.Writer, resp *core.Response, stats core.Stats) error {
	return WriteCandidateResponse(w, resp.Docs, responseStats(stats))
}

// responseStats returns the figures of st that a response carries.
func responseStats(st core.Stats) ResponseStats {
	return ResponseStats{Postings: st.Postings, Seeks: st.IO.Seeks, IOBytes: st.IO.Bytes}
}

// WriteError frames and writes a server-side error message.
func WriteError(w io.Writer, msg string) error {
	if len(msg) > 1<<16 {
		msg = msg[:1<<16]
	}
	return writeFrame(w, append(newFrame(TypeError, len(msg)), msg...))
}

// ReadMessage reads one frame and returns its type byte and body.
func ReadMessage(r io.Reader) (byte, []byte, error) {
	var buf []byte
	return ReadMessageBuf(r, &buf)
}

// ReadMessageBuf is ReadMessage into a caller-owned buffer, for loops
// that read many large frames (a recursive PIR answer is ~590 KB): the
// frame lands in *buf, which grows to the largest frame seen and is
// reused by the next call. The returned body aliases *buf, so it is
// valid only until then — decode it, or copy what must outlive it,
// first.
func ReadMessageBuf(r io.Reader, buf *[]byte) (byte, []byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("wire: reading frame: %w", err)
	}
	return body[0], body[1:], nil
}

// DecodeQuery parses a TypeQuery body.
func DecodeQuery(body []byte) (*core.Query, error) {
	pub, body, err := decodeKey(body)
	if err != nil {
		return nil, err
	}
	entries, body, err := decodeEntries(body, pub.N)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	if len(body) != 0 {
		return nil, errors.New("wire: trailing bytes after query")
	}
	return &core.Query{Pub: pub, Entries: entries}, nil
}

// decodeKey parses the public key appendKey wrote: N, G and R, each
// positive.
func decodeKey(body []byte) (*benaloh.PublicKey, []byte, error) {
	var params [3]*big.Int
	for i, name := range []string{"N", "G", "R"} {
		v, rest, err := decodeBig(body)
		if err != nil {
			return nil, nil, fmt.Errorf("wire: key %s: %w", name, err)
		}
		if v.Sign() <= 0 {
			return nil, nil, fmt.Errorf("wire: nonpositive key parameter %s", name)
		}
		params[i], body = v, rest
	}
	return &benaloh.PublicKey{N: params[0], G: params[1], R: params[2]}, body, nil
}

// decodeEntries parses the entries appendEntries wrote, each flag a
// nonzero residue modulo n. Its errors name the entry; the caller names
// the query.
func decodeEntries(body []byte, n *big.Int) ([]core.QueryEntry, []byte, error) {
	count, used, err := vbyte.Decode(body)
	if err != nil || count > maxEntries || count*minEntryBytes > uint64(len(body)) {
		return nil, nil, fmt.Errorf("entry count: %w", orRange(err))
	}
	body = body[used:]
	entries := make([]core.QueryEntry, count)
	for i := range entries {
		term, used, err := vbyte.Decode(body)
		if err != nil || term >= 1<<31 {
			return nil, nil, fmt.Errorf("entry %d term: %w", i, orRange(err))
		}
		flag, rest, err := decodeBig(body[used:])
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d flag: %w", i, err)
		}
		if flag.Sign() <= 0 || flag.Cmp(n) >= 0 {
			return nil, nil, fmt.Errorf("entry %d flag outside Z_n", i)
		}
		body = rest
		entries[i] = core.QueryEntry{Term: wordnet.TermID(term), Flag: flag}
	}
	return entries, body, nil
}

// Candidate is one decoded response document: core's candidate struct,
// so a decoded response is Algorithm 5's input as it stands.
type Candidate = core.DocScore

// ResponseStats carries the server cost figures across the wire.
type ResponseStats struct {
	Postings int
	Seeks    int
	IOBytes  int
}

// DecodeResponse parses a TypeResponse body.
func DecodeResponse(body []byte) ([]Candidate, ResponseStats, error) {
	out, body, err := decodeCandidates(body)
	if err != nil {
		return nil, ResponseStats{}, fmt.Errorf("wire: %w", err)
	}
	st, body, err := decodeResponseStats(body)
	if err != nil {
		return nil, st, fmt.Errorf("wire: stats: %w", err)
	}
	if len(body) != 0 {
		return nil, st, errors.New("wire: trailing bytes after response")
	}
	return out, st, nil
}

// decodeCandidates decodes the candidate set at the head of body — a
// count, then a document id and a ciphertext per candidate — and returns
// the bytes after it. The ciphertexts are ONE big.Int slab over ONE word
// slab (decodeBigs' layout, each value a cap-limited window of the slab),
// where a decodeBig per candidate allocates both per candidate. Every
// refusal is in the prefixes, so a first pass over them both validates
// the set and sizes the slab; errors name the candidate, without the
// "wire:" the caller prepends.
func decodeCandidates(body []byte) ([]Candidate, []byte, error) {
	n, used, err := vbyte.Decode(body)
	if err != nil || n > maxCandidates || n*minCandidateBytes > uint64(len(body)) {
		return nil, nil, fmt.Errorf("candidate count: %w", orRange(err))
	}
	body = body[used:]
	words, scan := 0, body
	for i := range int(n) {
		doc, used, err := vbyte.Decode(scan)
		if err != nil || doc >= 1<<31 {
			return nil, nil, fmt.Errorf("candidate %d doc: %w", i, orRange(err))
		}
		scan = scan[used:]
		size, used, err := bigPrefix(scan)
		if err != nil {
			return nil, nil, fmt.Errorf("candidate %d score: %w", i, err)
		}
		scan = scan[used+size:]
		words += (size + wordBytes - 1) / wordBytes
	}
	out := make([]Candidate, n)
	encs := make([]big.Int, n)
	slab := make([]big.Word, words)
	for i := range out {
		doc, used, _ := vbyte.Decode(body)
		body = body[used:]
		size, used, _ := bigPrefix(body)
		w := (size + wordBytes - 1) / wordBytes
		out[i] = Candidate{Doc: index.DocID(doc), Enc: encs[i].SetBits(magnitudeWords(slab[:w:w], body[used:used+size]))}
		slab = slab[w:]
		body = body[used+size:]
	}
	return out, body, nil
}

// candidatesSize returns the bytes appendCandidates spends on cands, its
// three stats figures counted at their widest.
func candidatesSize(cands []Candidate) int {
	size := 4 * vbyte.MaxLen
	for _, c := range cands {
		size += vbyte.Len(uint64(c.Doc)) + bigSize(c.Enc)
	}
	return size
}

// appendCandidates encodes one candidate set + stats tail, the shared
// layout of TypeResponse and each TypeBatchResponse member.
func appendCandidates(body []byte, cands []Candidate, st ResponseStats) []byte {
	body = vbyte.Append(body, uint64(len(cands)))
	for _, c := range cands {
		body = vbyte.Append(body, uint64(c.Doc))
		body = appendBig(body, c.Enc)
	}
	body = vbyte.Append(body, uint64(st.Postings))
	body = vbyte.Append(body, uint64(st.Seeks))
	body = vbyte.Append(body, uint64(st.IOBytes))
	return body
}

// decodeResponseStats decodes the cost figures that follow a candidate
// set and returns the bytes after them.
func decodeResponseStats(body []byte) (ResponseStats, []byte, error) {
	var st ResponseStats
	for _, dst := range []*int{&st.Postings, &st.Seeks, &st.IOBytes} {
		v, used, err := vbyte.Decode(body)
		if err != nil {
			return st, nil, err
		}
		*dst = int(v)
		body = body[used:]
	}
	return st, body, nil
}

// frameHead is the length header's size: a frame's first four bytes.
const frameHead = 4

// newFrame starts a frame of type typ with room for size more body
// bytes: frameHead bytes that writeFrame fills, then the type byte. Every
// writer builds its frame on one, so a frame is one buffer and one Write.
func newFrame(typ byte, size int) []byte {
	frame := make([]byte, frameHead+1, frameHead+1+size)
	frame[frameHead] = typ
	return frame
}

// writeFrame fills the length header of a frame begun by newFrame and
// writes the frame with one Write.
func writeFrame(w io.Writer, frame []byte) error {
	body := len(frame) - frameHead
	if body > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", body)
	}
	binary.LittleEndian.PutUint32(frame, uint32(body))
	_, err := w.Write(frame)
	return err
}

// appendBig appends v's length-prefixed big-endian magnitude, written in
// place from v's words: the writers pre-size their frames (bigsSize), so
// an element costs no allocation.
func appendBig(dst []byte, v *big.Int) []byte {
	n := (v.BitLen() + 7) / 8
	dst = slices.Grow(vbyte.Append(dst, uint64(n)), n)
	at := len(dst)
	dst = dst[:at+n]
	putMagnitude(dst[at:], v.Bits())
	return dst
}

// putMagnitude writes the little-endian words ws into mag big-endian,
// right-aligned, and zeroes the bytes above them; mag must hold their
// magnitude. It is magnitudeWords' inverse.
func putMagnitude(mag []byte, ws []big.Word) {
	for _, w := range ws {
		if wordBytes == 8 && len(mag) >= 8 {
			binary.BigEndian.PutUint64(mag[len(mag)-8:], uint64(w))
			mag = mag[:len(mag)-8]
			continue
		}
		for i := 0; i < wordBytes && len(mag) > 0; i, w = i+1, w>>8 {
			mag[len(mag)-1] = byte(w)
			mag = mag[:len(mag)-1]
		}
	}
	clear(mag)
}

func decodeBig(buf []byte) (*big.Int, []byte, error) {
	size, used, err := bigPrefix(buf)
	if err != nil {
		return nil, nil, err
	}
	return new(big.Int).SetBytes(buf[used : used+size]), buf[used+size:], nil
}

// bigPrefix reads the length prefix of the magnitude at the head of buf
// and checks that the magnitude is within the limit and all there — the
// one place a big integer's framing is refused, for decodeBig and the
// PIR slab decoder (decodeBigs) alike. A one-byte prefix — every
// magnitude under 128 bytes — is read in line.
func bigPrefix(buf []byte) (size, used int, err error) {
	if len(buf) > 0 && buf[0] >= 0x80 {
		size, used = int(buf[0]&0x7f), 1
	} else {
		v, n, err := vbyte.Decode(buf)
		if err != nil {
			return 0, 0, err
		}
		if v > maxIntBytes {
			return 0, 0, fmt.Errorf("big integer of %d bytes exceeds limit", v)
		}
		size, used = int(v), n
	}
	if len(buf)-used < size {
		return 0, 0, errors.New("truncated big integer")
	}
	return size, used, nil
}

func orRange(err error) error {
	if err != nil {
		return err
	}
	return errors.New("value out of range")
}
