package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"embellish/internal/docstore"
	"embellish/internal/vbyte"
)

// Retrieval messages carry the second privacy stage over the wire:
// after ranking privately, the client fetches the winning documents
// through Kushilevitz-Ostrovsky PIR without revealing which ones won.
// A server exposes them only behind the serving layer's AllowRetrieval
// flag.
//
// TypePIRParams: the fetch opens with the hello, a request with a body
// (retrieval_hello.go). Sent with an EMPTY body it asks for the table
// alone, as a router's partition legs do; that response body is the
// public block mapping, the table — block size vbyte, block count
// vbyte, document count vbyte, then per document: first block vbyte,
// block count vbyte, byte length vbyte, content crc32 vbyte, deleted
// byte. Types 10 and 11, the retired one-query-a-round-trip fetch, get
// the unknown-type refusal.

// TypePIRParams is the retrieval message type 9 (1-5 are the ranking
// protocol, 6-8 admin).
const TypePIRParams = 9

// Retrieval caps on attacker-controlled sizes.
const (
	// maxPIRDocs and maxPIRBlocks bound the params table.
	maxPIRDocs   = 1 << 26
	maxPIRBlocks = 1 << 26
	// maxPIRModulusBytes bounds the client-chosen modulus: every server
	// answer costs 8*blockSize*cols modular multiplications at this
	// width, so an over-wide modulus is a CPU-exhaustion vector long
	// before it is a bandwidth one. 8192-bit moduli are far beyond the
	// paper's cost model.
	maxPIRModulusBytes = 1 << 10
)

// WritePIRParamsRequest frames the client's empty params request.
func WritePIRParamsRequest(w io.Writer) error {
	return writeFrame(w, newFrame(TypePIRParams, 0))
}

// WritePIRParams frames and writes the server's block mapping.
func WritePIRParams(w io.Writer, p docstore.Params) error {
	return writeFrame(w, appendParams(newFrame(TypePIRParams, 0), p))
}

// appendParams appends the table body of p.
func appendParams(body []byte, p docstore.Params) []byte {
	body = vbyte.Append(body, uint64(p.BlockSize))
	body = vbyte.Append(body, uint64(p.NumBlocks))
	body = vbyte.Append(body, uint64(len(p.Exts)))
	for _, ext := range p.Exts {
		body = vbyte.Append(body, uint64(ext.First))
		body = vbyte.Append(body, uint64(ext.Blocks))
		body = vbyte.Append(body, uint64(ext.Length))
		body = vbyte.Append(body, uint64(ext.Crc))
		if ext.Deleted {
			body = append(body, 1)
		} else {
			body = append(body, 0)
		}
	}
	return body
}

// DecodePIRParams parses a TypePIRParams response body.
func DecodePIRParams(body []byte) (docstore.Params, error) {
	var p docstore.Params
	blockSize, used, err := vbyte.Decode(body)
	if err != nil || blockSize < 1 || blockSize > docstore.MaxBlockSize {
		return p, fmt.Errorf("wire: params block size: %w", orRange(err))
	}
	body = body[used:]
	numBlocks, used, err := vbyte.Decode(body)
	if err != nil || numBlocks > maxPIRBlocks {
		return p, fmt.Errorf("wire: params block count: %w", orRange(err))
	}
	body = body[used:]
	nDocs, used, err := vbyte.Decode(body)
	// Each document costs at least 4 body bytes, so a count past the
	// remaining body is forged — reject before allocating.
	if err != nil || nDocs > maxPIRDocs || nDocs*4 > uint64(len(body)) {
		return p, fmt.Errorf("wire: params document count: %w", orRange(err))
	}
	body = body[used:]
	p.BlockSize = int(blockSize)
	p.NumBlocks = int(numBlocks)
	p.Exts = make([]docstore.Extent, nDocs)
	for i := range p.Exts {
		var fields [4]uint64
		for f := range fields {
			v, used, err := vbyte.Decode(body)
			if err != nil {
				return p, fmt.Errorf("wire: params document %d: %w", i, err)
			}
			fields[f] = v
			body = body[used:]
		}
		first, blocks, length, crc := fields[0], fields[1], fields[2], fields[3]
		if first+blocks < first || first+blocks > numBlocks {
			return p, fmt.Errorf("wire: params document %d extent outside the block array", i)
		}
		if length >= 1<<31 || length > blocks*blockSize {
			return p, fmt.Errorf("wire: params document %d length %d exceeds its blocks", i, length)
		}
		if crc > 1<<32-1 {
			return p, fmt.Errorf("wire: params document %d checksum out of range", i)
		}
		if len(body) < 1 || body[0] > 1 {
			return p, fmt.Errorf("wire: params document %d deleted flag", i)
		}
		p.Exts[i] = docstore.Extent{
			First:   uint32(first),
			Blocks:  uint32(blocks),
			Length:  uint32(length),
			Crc:     uint32(crc),
			Deleted: body[0] == 1,
		}
		body = body[1:]
	}
	if len(body) != 0 {
		return p, errors.New("wire: trailing bytes after params")
	}
	return p, nil
}

// pirHeadSize bounds the bytes a PIR frame body spends outside its group
// elements: the type byte and a vbyte count.
const pirHeadSize = 1 + 10

// bigsSize returns the bytes appendBig spends on vs, so the writers
// allocate their frames (54 KB per 6,029-block query at a 64-bit
// modulus, 330 KB per six-query batch) once instead of growing them from
// nil.
func bigsSize(vs ...*big.Int) int {
	size := 0
	for _, v := range vs {
		size += bigSize(v)
	}
	return size
}

// bigSize returns the bytes appendBig spends on v: a vbyte length and the
// magnitude.
func bigSize(v *big.Int) int {
	n := (v.BitLen() + 7) / 8
	return vbyte.Len(uint64(n)) + n
}

// errOutsideGroup is decodeBigs' refusal of a group element outside
// (0, N); bigsError gives it the element's name.
var errOutsideGroup = errors.New("outside Z_n")

// wordBytes is the width of a big.Word in bytes.
const wordBytes = bits.UintSize / 8

// decodeBigs decodes len(out) length-prefixed big-endian magnitudes —
// the group elements of a written-out PIR query frame — into
// ONE big.Int slab and ONE word slab, where a decodeBig per element
// would allocate both per element. The values are decodeBig's (leading
// zero bytes and empty magnitudes normalise as SetBytes does) and so is
// every refusal (bigPrefix), in the same order; with a modulus n an
// element outside (0, n) is refused too. On error, at names the offending element.
func decodeBigs(buf []byte, out []*big.Int, n *big.Int) (rest []byte, at int, err error) {
	// The length prefixes first: they size the word slab. A bad prefix
	// ends the run there, but an element before it may still be the first
	// refusal, so the elements up to it are decoded all the same.
	valid, words, scan := len(out), 0, buf
	var prefixErr error
	for i := range out {
		size, used, err := bigPrefix(scan)
		if err != nil {
			valid, prefixErr = i, err
			break
		}
		words += (size + wordBytes - 1) / wordBytes
		scan = scan[used+size:]
	}
	ints := make([]big.Int, valid)
	slab := make([]big.Word, words)
	for i := range ints {
		size, used, _ := bigPrefix(buf)
		mag := buf[used : used+size]
		buf = buf[used+size:]
		w := (size + wordBytes - 1) / wordBytes
		// Capacity stops at the element's own words: arithmetic on one
		// value can never grow into its neighbour.
		v := ints[i].SetBits(magnitudeWords(slab[:w:w], mag))
		slab = slab[w:]
		if n != nil && (v.Sign() <= 0 || v.Cmp(n) >= 0) {
			return nil, i, errOutsideGroup
		}
		out[i] = v
	}
	if prefixErr != nil {
		return nil, valid, prefixErr
	}
	return buf, 0, nil
}

// magnitudeWords fills dst, sized to hold it, with the little-endian
// words of the big-endian magnitude mag and returns dst.
func magnitudeWords(dst []big.Word, mag []byte) []big.Word {
	for j := range dst {
		hi := len(mag) - j*wordBytes
		if wordBytes == 8 && hi >= 8 {
			dst[j] = big.Word(binary.BigEndian.Uint64(mag[hi-8 : hi]))
			continue
		}
		var word big.Word
		for _, b := range mag[max(hi-wordBytes, 0):hi] {
			word = word<<8 | big.Word(b)
		}
		dst[j] = word
	}
	return dst
}

// bigsError words a decodeBigs refusal for element at of the run the
// caller names.
func bigsError(what string, at int, err error) error {
	if err == errOutsideGroup {
		return fmt.Errorf("wire: %s %d outside Z_n", what, at)
	}
	return fmt.Errorf("wire: %s %d: %w", what, at, err)
}
