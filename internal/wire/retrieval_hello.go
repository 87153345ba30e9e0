package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

// The fetch hello and packed answers. A fetch client opens with the
// hello, a TypePIRParams request with a body, and learns from the reply
// whether the block mapping it holds on this connection is still the
// server's. Every PIR answer travels packed: gammas at the modulus's
// width.
//
// Hello (request body): the ParamsDigestBytes-byte digest of the mapping
// the client holds on this connection, or a single 0 when it holds none.
// An empty body asks for the table alone (retrieval.go).
//
// Reply to the hello: 0 | digest (ParamsDigestBytes) | changed byte (0/1)
// | when changed, the table body. The leading 0 is a block size no table
// has, so DecodePIRParamsReply tells the two replies apart. The digest
// names the table: the first ParamsDigestBytes bytes of the SHA-256 of its
// body.
//
// Packed answer (the tail of a type-13 body): 0 | width vbyte | gamma
// count vbyte | count × width bytes, every gamma big-endian at width
// bytes, the byte length of the frame's modulus. The leading 0 marks the
// form: an answer that does not open with it is refused.

// ParamsDigestBytes is the length of a block-mapping digest.
const ParamsDigestBytes = 16

// ParamsDigest names one block mapping: the truncated SHA-256 of its
// table body.
type ParamsDigest [ParamsDigestBytes]byte

// digestTable returns the digest of a table body.
func digestTable(table []byte) ParamsDigest {
	sum := sha256.Sum256(table)
	return ParamsDigest(sum[:ParamsDigestBytes])
}

// DigestPIRParams returns the digest that names mapping p.
func DigestPIRParams(p docstore.Params) ParamsDigest {
	return digestTable(appendParams(nil, p))
}

// WritePIRHelloReply answers a hello naming have, nil when the client
// holds no mapping: the unchanged reply when have names p, the changed
// reply carrying p's table otherwise.
func WritePIRHelloReply(w io.Writer, p docstore.Params, have *ParamsDigest) error {
	body := vbyte.Append([]byte{TypePIRParams}, 0)
	at := len(body)
	body = append(body, make([]byte, ParamsDigestBytes+1)...)
	body = appendParams(body, p)
	table := body[at+ParamsDigestBytes+1:]
	digest := digestTable(table)
	copy(body[at:], digest[:])
	if have != nil && *have == digest {
		return writeFrame(w, body[:at+ParamsDigestBytes+1])
	}
	body[at+ParamsDigestBytes] = 1
	return writeFrame(w, body)
}

// WritePIRHello frames the hello: have is the digest of the mapping the
// client holds on this connection, nil when it holds none.
func WritePIRHello(w io.Writer, have *ParamsDigest) error {
	if have == nil {
		return writeFrame(w, vbyte.Append([]byte{TypePIRParams}, 0))
	}
	return writeFrame(w, append([]byte{TypePIRParams}, have[:]...))
}

// DecodePIRHello parses a non-empty TypePIRParams request body: the digest
// it names, or nil for the single 0 of a client that holds no mapping.
func DecodePIRHello(body []byte) (*ParamsDigest, error) {
	if v, used, err := vbyte.Decode(body); err == nil && v == 0 && used == len(body) {
		return nil, nil
	}
	if len(body) != ParamsDigestBytes {
		return nil, fmt.Errorf("wire: params hello of %d bytes is neither a single 0 nor a %d-byte digest", len(body), ParamsDigestBytes)
	}
	d := ParamsDigest(body)
	return &d, nil
}

// ParamsReply is a decoded reply to the hello.
type ParamsReply struct {
	// Digest names the server's mapping.
	Digest ParamsDigest
	// Changed reports that Params carries the mapping: the hello named
	// another, or none.
	Changed bool
	Params  docstore.Params
}

// DecodePIRParamsReply parses the TypePIRParams reply to the hello. The
// table alone — the reply to the empty request — is refused, and so are a
// changed reply whose digest does not name its table and trailing bytes.
func DecodePIRParamsReply(body []byte) (ParamsReply, error) {
	body, hello := leadingZero(body)
	if !hello {
		return ParamsReply{}, errors.New("wire: params reply is not a reply to the hello")
	}
	var r ParamsReply
	if len(body) < ParamsDigestBytes+1 {
		return r, errors.New("wire: params reply digest: truncated")
	}
	r.Digest = ParamsDigest(body[:ParamsDigestBytes])
	changed, table := body[ParamsDigestBytes], body[ParamsDigestBytes+1:]
	switch {
	case changed == 0 && len(table) != 0:
		return r, errors.New("wire: trailing bytes after unchanged params reply")
	case changed == 0:
		return r, nil
	case changed != 1:
		return r, errors.New("wire: params reply changed flag")
	case digestTable(table) != r.Digest:
		return r, errors.New("wire: params reply digest does not name its table")
	}
	r.Changed = true
	var err error
	r.Params, err = DecodePIRParams(table)
	return r, err
}

// WritePIRBatchAnswerPacked frames and writes one streamed batch answer:
// the index of the query it answers (0-based within its batch) and the
// answer packed, every gamma at the byte length of the frame's modulus n.
func WritePIRBatchAnswerPacked(w io.Writer, index int, a *pir.Answer, n *big.Int) error {
	if index < 0 || index >= MaxPIRBatch {
		return fmt.Errorf("wire: PIR batch answer index %d out of range", index)
	}
	body, err := appendPacked(vbyte.Append([]byte{TypePIRBatchResponse}, uint64(index)), a, n)
	if err != nil {
		return err
	}
	return writeFrame(w, body)
}

// appendPacked encodes one PIR answer packed under modulus n.
func appendPacked(body []byte, a *pir.Answer, n *big.Int) ([]byte, error) {
	if a == nil || len(a.Gammas) == 0 {
		return nil, errors.New("wire: nil PIR answer")
	}
	if n == nil || n.Sign() <= 0 || (n.BitLen()+7)/8 > maxPIRModulusBytes {
		return nil, errors.New("wire: packed PIR answer modulus out of range")
	}
	width := (n.BitLen() + 7) / 8
	body = slices.Grow(body, 3*vbyte.MaxLen+len(a.Gammas)*width)
	body = vbyte.Append(body, 0)
	body = vbyte.Append(body, uint64(width))
	body = vbyte.Append(body, uint64(len(a.Gammas)))
	for i, g := range a.Gammas {
		if g.Sign() < 0 || g.BitLen() > 8*width {
			return nil, fmt.Errorf("wire: PIR gamma %d does not fit the modulus's %d bytes", i, width)
		}
		at := len(body)
		body = body[:at+width]
		// One-word gammas — every gamma under a 64-bit modulus — are cut
		// straight out of the word, as appendBig does.
		if ws := g.Bits(); len(ws) == 1 && width <= 8 {
			var be [8]byte
			binary.BigEndian.PutUint64(be[:], uint64(ws[0]))
			copy(body[at:], be[8-width:])
		} else {
			g.FillBytes(body[at:])
		}
	}
	return body, nil
}

// PIRAnswerView is a PIR answer body read where it lies
// (ViewPIRBatchAnswer). Its gammas stay in the frame: Gammas is a slice
// of the body, valid as long as the buffer it was read into, and a client
// Euler-tests those bytes in place (pir.ClientKey.DecodeImage). An answer
// computed in process never crossed a wire; it arrives in Answer, and
// Width and Gammas are zero.
type PIRAnswerView struct {
	Index int // the query it answers, within its batch
	Count int // its gammas
	Width int // a packed gamma's byte length
	// Gammas is the Count × Width packed gamma bytes, big-endian.
	Gammas []byte
	Answer *pir.Answer
}

// viewPacked parses what follows the 0 of a packed answer — the one
// parser of the packed header. The width is bounded by the modulus
// ceiling and the count by the single-answer cap, and count × width must
// be exactly the rest of the body; nothing is copied or allocated.
func viewPacked(body []byte) (PIRAnswerView, error) {
	width, used, err := vbyte.Decode(body)
	if err != nil || width == 0 || width > maxPIRModulusBytes {
		return PIRAnswerView{}, fmt.Errorf("wire: packed PIR answer width: %w", orRange(err))
	}
	body = body[used:]
	count, used, err := vbyte.Decode(body)
	if err != nil || count == 0 || count > 8*docstore.MaxBlockSize {
		return PIRAnswerView{}, fmt.Errorf("wire: packed PIR gamma count: %w", orRange(err))
	}
	body = body[used:]
	if count*width != uint64(len(body)) {
		return PIRAnswerView{}, fmt.Errorf("wire: packed PIR answer of %d %d-byte gammas carries %d bytes", count, width, len(body))
	}
	return PIRAnswerView{Count: int(count), Width: int(width), Gammas: body}, nil
}

// decodePacked copies a packed view's gammas out of the frame into ONE
// big.Int slab over ONE word slab, as decodeBigs' do.
func decodePacked(v PIRAnswerView) *pir.Answer {
	size, words := v.Width, (v.Width+wordBytes-1)/wordBytes
	a := &pir.Answer{Gammas: make([]*big.Int, v.Count)}
	ints := make([]big.Int, v.Count)
	slab := make([]big.Word, v.Count*words)
	for i := range ints {
		// Capacity stops at the gamma's own words, as in decodeBigs.
		dst := slab[i*words : (i+1)*words : (i+1)*words]
		a.Gammas[i] = ints[i].SetBits(magnitudeWords(dst, v.Gammas[i*size:(i+1)*size]))
	}
	return a
}
