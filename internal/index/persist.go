package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"embellish/internal/vbyte"
)

// On-disk format (little-endian where fixed-width):
//
//	magic "EIDX" | version u8 | NumDocs vbyte | QuantLevels vbyte |
//	maxImpact f64 | docLen vbyte-slice | vocab count + (len,bytes)* |
//	per term: posting count, then per posting doc vbyte, quantized
//	vbyte, impact f64 | crc32(payload)
//
// Inverted lists are written in byImpact order — a cut index's runs
// are sorted back into it — so the file does not depend on the cut, and
// a loaded index is byte-for-byte behaviourally identical to the built
// one. Impacts stay full-precision float64: quantized values alone
// would perturb plaintext scoring.

const (
	persistMagic   = "EIDX"
	persistVersion = 1
	// maxReasonable bounds attacker-controlled counts during load.
	maxReasonable = 1 << 31
)

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	crc := crc32.NewIEEE()
	out := io.MultiWriter(cw, crc)

	var buf []byte
	if _, err := io.WriteString(out, persistMagic); err != nil {
		return cw.n, err
	}
	if _, err := out.Write([]byte{persistVersion}); err != nil {
		return cw.n, err
	}
	buf = vbyte.Append(buf[:0], uint64(ix.NumDocs))
	buf = vbyte.Append(buf, uint64(ix.QuantLevels))
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(ix.maxImpact))
	buf = append(buf, f8[:]...)
	// Document lengths.
	buf = vbyte.Append(buf, uint64(len(ix.docLen)))
	for _, l := range ix.docLen {
		buf = vbyte.Append(buf, uint64(l))
	}
	// Vocabulary.
	buf = vbyte.Append(buf, uint64(len(ix.vocab)))
	for _, s := range ix.vocab {
		buf = vbyte.Append(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	if _, err := out.Write(buf); err != nil {
		return cw.n, err
	}
	// Inverted lists.
	var sorted []Posting
	for _, list := range ix.lists {
		if ix.Runs() > 1 {
			sorted = append(sorted[:0], list...)
			slices.SortFunc(sorted, byImpact)
			list = sorted
		}
		buf = vbyte.Append(buf[:0], uint64(len(list)))
		for _, p := range list {
			buf = vbyte.Append(buf, uint64(p.Doc))
			buf = vbyte.Append(buf, uint64(p.Quantized))
			binary.LittleEndian.PutUint64(f8[:], math.Float64bits(p.Impact))
			buf = append(buf, f8[:]...)
		}
		if _, err := out.Write(buf); err != nil {
			return cw.n, err
		}
	}
	// Trailing checksum (not itself checksummed).
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := cw.Write(tail[:]); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadIndex deserializes an index written by WriteTo, verifying the
// checksum and validating every count before allocation. The whole file
// is read up front: the checksum trails the payload, and verifying it
// before parsing keeps corrupt input from half-populating an index.
func ReadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading file: %w", err)
	}
	if len(data) < len(persistMagic)+1+4 {
		return nil, errors.New("index: file too short")
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tail) {
		return nil, errors.New("index: checksum mismatch; file corrupt")
	}
	br := bufio.NewReader(bytes.NewReader(payload))

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if string(magic[:]) != persistMagic {
		return nil, errors.New("index: bad magic; not an index file")
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != persistVersion {
		return nil, fmt.Errorf("index: unsupported version %d", ver)
	}

	numDocs, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: NumDocs: %w", err)
	}
	quant, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: QuantLevels: %w", err)
	}
	if numDocs > maxReasonable || quant > maxReasonable || quant == 0 {
		return nil, errors.New("index: implausible header counts")
	}
	maxImpact, err := readFloat64(br)
	if err != nil {
		return nil, err
	}

	ix := &Index{
		NumDocs:     int(numDocs),
		QuantLevels: int32(quant),
		maxImpact:   maxImpact,
		terms:       map[string]int{},
	}

	nLens, err := readUvarint(br)
	if err != nil || nLens > maxReasonable {
		return nil, fmt.Errorf("index: docLen count: %w", orImplausible(err))
	}
	ix.docLen = make([]int32, nLens)
	for i := range ix.docLen {
		v, err := readUvarint(br)
		if err != nil || v > maxReasonable {
			return nil, fmt.Errorf("index: docLen[%d]: %w", i, orImplausible(err))
		}
		ix.docLen[i] = int32(v)
	}

	nVocab, err := readUvarint(br)
	if err != nil || nVocab > maxReasonable {
		return nil, fmt.Errorf("index: vocab count: %w", orImplausible(err))
	}
	ix.vocab = make([]string, nVocab)
	for i := range ix.vocab {
		slen, err := readUvarint(br)
		if err != nil || slen > 1<<20 {
			return nil, fmt.Errorf("index: vocab[%d] length: %w", i, orImplausible(err))
		}
		b := make([]byte, slen)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("index: vocab[%d]: %w", i, err)
		}
		ix.vocab[i] = string(b)
		if _, dup := ix.terms[ix.vocab[i]]; dup {
			return nil, fmt.Errorf("index: duplicate vocab entry %q", ix.vocab[i])
		}
		ix.terms[ix.vocab[i]] = i
	}

	ix.lists = make([][]Posting, nVocab)
	for t := range ix.lists {
		n, err := readUvarint(br)
		if err != nil || n > numDocs {
			return nil, fmt.Errorf("index: list %d count: %w", t, orImplausible(err))
		}
		list := make([]Posting, n)
		for i := range list {
			doc, err := readUvarint(br)
			if err != nil || doc >= numDocs {
				return nil, fmt.Errorf("index: list %d posting %d doc: %w", t, i, orImplausible(err))
			}
			q, err := readUvarint(br)
			if err != nil || q > quant {
				return nil, fmt.Errorf("index: list %d posting %d quantized: %w", t, i, orImplausible(err))
			}
			imp, err := readFloat64(br)
			if err != nil {
				return nil, err
			}
			list[i] = Posting{Doc: DocID(doc), Quantized: int32(q), Impact: imp}
		}
		// byImpact is the order WriteTo restores and a strict total one
		// (a repeated document breaks it): reject a file out of it rather
		// than mis-rank, or save it back as other bytes.
		for i := 1; i < len(list); i++ {
			if byImpact(list[i-1], list[i]) >= 0 {
				return nil, fmt.Errorf("index: list %d not impact-ordered at %d", t, i)
			}
		}
		ix.lists[t] = list
	}

	return ix, nil
}

func orImplausible(err error) error {
	if err != nil {
		return err
	}
	return errors.New("implausible count")
}

func readUvarint(br io.ByteReader) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if i == vbyte.MaxLen {
			return 0, errors.New("overlong varint")
		}
		if b&0x80 != 0 {
			return v | uint64(b&0x7f)<<shift, nil
		}
		v |= uint64(b) << shift
		shift += 7
		if shift >= 64 {
			return 0, errors.New("varint overflow")
		}
	}
}

func readFloat64(r io.Reader) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
