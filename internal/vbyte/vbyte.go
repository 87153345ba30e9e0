// Package vbyte implements variable-byte (vbyte) integer coding, the
// standard compression for inverted files (Zobel & Moffat [29], the
// survey the paper builds its index on). Inverted lists store document
// gaps and quantized impacts as unsigned integers; vbyte keeps them
// compact on disk while remaining trivially seekable block-by-block.
//
// Encoding: seven payload bits per byte, little-endian groups, high bit
// set on the final byte of each integer (the common IR convention).
package vbyte

import (
	"errors"
	"fmt"
)

// MaxLen is the worst-case encoded size of a uint64.
const MaxLen = 10

// Append encodes v and appends it to dst, returning the extended slice.
func Append(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v&0x7f))
		v >>= 7
	}
	return append(dst, byte(v)|0x80)
}

// Len returns the number of bytes Append spends on v.
func Len(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// Decode reads one integer from buf, returning the value and the number
// of bytes consumed. Non-canonical (overlong) encodings are rejected:
// the decoder feeds protocol surfaces where accepting several byte
// sequences for one value is a malleability hazard.
func Decode(buf []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, b := range buf {
		if i == MaxLen {
			return 0, 0, errors.New("vbyte: value overruns 10 bytes")
		}
		if b&0x80 != 0 {
			if b&0x7f == 0 && i > 0 {
				return 0, 0, errors.New("vbyte: non-canonical encoding (trailing zero group)")
			}
			if shift >= 64 || (shift == 63 && b&0x7f > 1) {
				return 0, 0, errors.New("vbyte: value overflows uint64")
			}
			return v | uint64(b&0x7f)<<shift, i + 1, nil
		}
		v |= uint64(b) << shift
		shift += 7
		if shift >= 64 {
			return 0, 0, errors.New("vbyte: value overflows uint64")
		}
	}
	return 0, 0, errors.New("vbyte: truncated value")
}

// AppendSlice encodes a length-prefixed sequence of integers.
func AppendSlice(dst []byte, vs []uint64) []byte {
	dst = Append(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = Append(dst, v)
	}
	return dst
}

// DecodeSlice reads a length-prefixed sequence, returning the values and
// bytes consumed. maxLen bounds the declared length to defend against
// corrupt or hostile input.
func DecodeSlice(buf []byte, maxLen int) ([]uint64, int, error) {
	n64, used, err := Decode(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("vbyte: slice length: %w", err)
	}
	if n64 > uint64(maxLen) {
		return nil, 0, fmt.Errorf("vbyte: declared length %d exceeds limit %d", n64, maxLen)
	}
	out := make([]uint64, n64)
	off := used
	for i := range out {
		v, n, err := Decode(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("vbyte: element %d: %w", i, err)
		}
		out[i] = v
		off += n
	}
	return out, off, nil
}

// AppendGaps delta-encodes a strictly increasing sequence (document
// numbers) as first value + gaps, the classic inverted-list layout.
func AppendGaps(dst []byte, sorted []uint64) ([]byte, error) {
	dst = Append(dst, uint64(len(sorted)))
	prev := uint64(0)
	for i, v := range sorted {
		if i > 0 && v <= prev {
			return nil, fmt.Errorf("vbyte: sequence not strictly increasing at %d (%d after %d)", i, v, prev)
		}
		if i == 0 {
			dst = Append(dst, v)
		} else {
			dst = Append(dst, v-prev)
		}
		prev = v
	}
	return dst, nil
}

// DecodeGaps reverses AppendGaps.
func DecodeGaps(buf []byte, maxLen int) ([]uint64, int, error) {
	vals, used, err := DecodeSlice(buf, maxLen)
	if err != nil {
		return nil, 0, err
	}
	for i := 1; i < len(vals); i++ {
		vals[i] += vals[i-1]
	}
	return vals, used, nil
}
