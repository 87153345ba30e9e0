package wire

import (
	"errors"
	"fmt"
	"io"

	"embellish/internal/vbyte"
)

// Admin messages carry online corpus updates (Live index appends and
// deletions) to a server that opted in to them. They are deliberately
// NOT part of the private-retrieval protocol: updates come from the
// corpus owner, not from searching users, and a server refuses them
// unless explicitly configured (the serving layer's AllowUpdates flag).
//
// TypeAddDocs:    count | per doc: id vbyte, text length vbyte, text.
// TypeDeleteDocs: count | ids as vbytes.
// TypeAdminOK:    live doc count vbyte | segment count vbyte.

// Admin message types (6-8; 1-5 are the retrieval protocol).
const (
	TypeAddDocs    = 6
	TypeDeleteDocs = 7
	TypeAdminOK    = 8
)

// Admin caps on attacker-controlled sizes.
const (
	// MaxAdminDocs caps documents (or deletions) per admin frame;
	// larger ingests batch across frames.
	MaxAdminDocs = 1 << 12
	// maxDocTextBytes caps one document's text.
	maxDocTextBytes = 1 << 20
)

// DocText is one document of a TypeAddDocs frame.
type DocText struct {
	ID   uint32
	Text string
}

// WriteAddDocs frames and writes an online document-add request.
func WriteAddDocs(w io.Writer, docs []DocText) error {
	if len(docs) == 0 {
		return errors.New("wire: empty add")
	}
	if len(docs) > MaxAdminDocs {
		return fmt.Errorf("wire: add of %d docs exceeds limit %d", len(docs), MaxAdminDocs)
	}
	body := vbyte.Append(newFrame(TypeAddDocs, 0), uint64(len(docs)))
	for _, d := range docs {
		if len(d.Text) > maxDocTextBytes {
			return fmt.Errorf("wire: document %d text of %d bytes exceeds limit", d.ID, len(d.Text))
		}
		body = vbyte.Append(body, uint64(d.ID))
		body = vbyte.Append(body, uint64(len(d.Text)))
		body = append(body, d.Text...)
	}
	return writeFrame(w, body)
}

// DecodeAddDocs parses a TypeAddDocs body.
func DecodeAddDocs(body []byte) ([]DocText, error) {
	n, used, err := vbyte.Decode(body)
	if err != nil || n == 0 || n > MaxAdminDocs {
		return nil, fmt.Errorf("wire: add count: %w", orRange(err))
	}
	body = body[used:]
	out := make([]DocText, n)
	for i := range out {
		id, used, err := vbyte.Decode(body)
		if err != nil || id >= 1<<31 {
			return nil, fmt.Errorf("wire: add doc %d id: %w", i, orRange(err))
		}
		body = body[used:]
		tlen, used, err := vbyte.Decode(body)
		if err != nil || tlen > maxDocTextBytes {
			return nil, fmt.Errorf("wire: add doc %d text length: %w", i, orRange(err))
		}
		body = body[used:]
		if uint64(len(body)) < tlen {
			return nil, fmt.Errorf("wire: add doc %d text truncated", i)
		}
		out[i] = DocText{ID: uint32(id), Text: string(body[:tlen])}
		body = body[tlen:]
	}
	if len(body) != 0 {
		return nil, errors.New("wire: trailing bytes after add")
	}
	return out, nil
}

// WriteDeleteDocs frames and writes an online document-delete request.
func WriteDeleteDocs(w io.Writer, ids []uint32) error {
	if len(ids) == 0 {
		return errors.New("wire: empty delete")
	}
	if len(ids) > MaxAdminDocs {
		return fmt.Errorf("wire: delete of %d ids exceeds limit %d", len(ids), MaxAdminDocs)
	}
	body := vbyte.Append(newFrame(TypeDeleteDocs, len(ids)*vbyte.MaxLen), uint64(len(ids)))
	for _, id := range ids {
		body = vbyte.Append(body, uint64(id))
	}
	return writeFrame(w, body)
}

// DecodeDeleteDocs parses a TypeDeleteDocs body.
func DecodeDeleteDocs(body []byte) ([]uint32, error) {
	n, used, err := vbyte.Decode(body)
	if err != nil || n == 0 || n > MaxAdminDocs {
		return nil, fmt.Errorf("wire: delete count: %w", orRange(err))
	}
	body = body[used:]
	out := make([]uint32, n)
	for i := range out {
		id, used, err := vbyte.Decode(body)
		if err != nil || id >= 1<<31 {
			return nil, fmt.Errorf("wire: delete id %d: %w", i, orRange(err))
		}
		body = body[used:]
		out[i] = uint32(id)
	}
	if len(body) != 0 {
		return nil, errors.New("wire: trailing bytes after delete")
	}
	return out, nil
}

// WriteAdminOK frames and writes the acknowledgement of an applied
// admin request: the server's live document and segment counts.
func WriteAdminOK(w io.Writer, liveDocs, segments int) error {
	body := vbyte.Append(newFrame(TypeAdminOK, 2*vbyte.MaxLen), uint64(liveDocs))
	body = vbyte.Append(body, uint64(segments))
	return writeFrame(w, body)
}

// DecodeAdminOK parses a TypeAdminOK body.
func DecodeAdminOK(body []byte) (liveDocs, segments int, err error) {
	for _, dst := range []*int{&liveDocs, &segments} {
		v, used, err := vbyte.Decode(body)
		if err != nil || v > 1<<31 {
			return 0, 0, fmt.Errorf("wire: admin ok: %w", orRange(err))
		}
		*dst = int(v)
		body = body[used:]
	}
	if len(body) != 0 {
		return 0, 0, errors.New("wire: trailing bytes after admin ok")
	}
	return liveDocs, segments, nil
}
