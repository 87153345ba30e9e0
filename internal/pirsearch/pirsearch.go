// Package pirsearch implements the alternate retrieval method of Section
// 4: fetching the genuine terms' inverted lists through Kushilevitz-
// Ostrovsky PIR, with each bucket treated as a private database. The
// inverted lists within a bucket are padded to a common length; the
// database has one column per bucket term and one row per bit of the
// padded lists. Each protocol run retrieves exactly one list, so a query
// with multiple genuine terms in one bucket needs one run per term — the
// scaling weakness Figures 7 and 8 expose. The runs against one bucket
// are answered in one scan of its columns, the way a served frame of
// equal-shape queries is (pir.ProcessColumnsMultiExecCtx).
//
// After fetching the genuine lists, the client computes relevance scores
// locally; the server never sees which column was touched.
package pirsearch

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"

	"embellish/internal/bucket"
	"embellish/internal/index"
	"embellish/internal/pir"
	"embellish/internal/simio"
	"embellish/internal/wire"
	"embellish/internal/wordnet"
)

// Server hosts one column store per bucket.
type Server struct {
	Org  *bucket.Organization
	Disk simio.Model

	buckets []columns
}

// columns is one bucket's database: a column per bucket term, each the
// term's list padded to colBytes bytes, and the transposition every scan
// of the store shares.
type columns struct {
	cols     [][]byte
	colBytes int
	patterns pir.Transposition
}

// postingWire is the serialized size of one posting: 4-byte doc id +
// 4-byte quantized impact.
const postingWire = 8

// NewServer builds the per-bucket column stores from the index. db maps
// organization terms to dictionary strings, exactly as core.NewServer
// does, so both schemes serve identical data.
func NewServer(ix *index.Index, org *bucket.Organization, db *wordnet.Database) *Server {
	s := &Server{Org: org, Disk: simio.Default(), buckets: make([]columns, org.NumBuckets())}
	for b := range s.buckets {
		terms := org.Bucket(b)
		// Pad every list to the bucket maximum (the paper's requirement).
		maxLen := 0
		lists := make([][]index.Posting, len(terms))
		for i, t := range terms {
			if ti, ok := ix.LookupTerm(db.Lemma(t)); ok {
				lists[i] = ix.List(ti)
			}
			maxLen = max(maxLen, len(lists[i]))
		}
		// A one-posting minimum keeps empty buckets well-formed.
		colBytes := 4 + max(maxLen, 1)*postingWire // 4-byte true length header
		cols := make([][]byte, len(terms))
		for i, list := range lists {
			cols[i] = encodeList(list, colBytes)
		}
		s.buckets[b].cols, s.buckets[b].colBytes = cols, colBytes
	}
	return s
}

// encodeList serializes a list into exactly colBytes bytes: a 4-byte
// big-endian posting count, then doc/impact pairs, zero-padded.
func encodeList(list []index.Posting, colBytes int) []byte {
	buf := make([]byte, colBytes)
	binary.BigEndian.PutUint32(buf, uint32(len(list)))
	off := 4
	for _, p := range list {
		binary.BigEndian.PutUint32(buf[off:], uint32(p.Doc))
		binary.BigEndian.PutUint32(buf[off+4:], uint32(p.Quantized))
		off += postingWire
	}
	return buf
}

// decodeList reverses encodeList.
func decodeList(buf []byte) ([]index.Posting, error) {
	if len(buf) < 4 {
		return nil, errors.New("pirsearch: short column")
	}
	n := int(binary.BigEndian.Uint32(buf))
	if 4+n*postingWire > len(buf) {
		return nil, fmt.Errorf("pirsearch: corrupt column header (%d postings, %d bytes)", n, len(buf))
	}
	out := make([]index.Posting, n)
	off := 4
	for i := 0; i < n; i++ {
		out[i] = index.Posting{
			Doc:       index.DocID(binary.BigEndian.Uint32(buf[off:])),
			Quantized: int32(binary.BigEndian.Uint32(buf[off+4:])),
		}
		off += postingWire
	}
	return out, nil
}

// Stats aggregates the cost of answering PIR retrievals.
type Stats struct {
	ModMuls      int
	Runs         int // protocol executions (one per genuine term)
	IO           simio.Accounting
	QueryBytes   int
	AnswerBytes  int
	RowsReturned int
}

// Retriever answers a bucket's batch of PIR runs: a *Server, or a
// wrapper that meters the server's share of a Search.
type Retriever interface {
	Retrieve(b int, qs []*pir.Query) ([]*pir.Answer, Stats, error)
}

// Retrieve answers one PIR run per query against bucket b, for the
// columns the queries target (which the server cannot determine): one
// scan of the bucket's columns on GOMAXPROCS workers, which reads the
// bucket once for the whole batch.
func (s *Server) Retrieve(b int, qs []*pir.Query) ([]*pir.Answer, Stats, error) {
	if b < 0 || b >= len(s.buckets) {
		return nil, Stats{}, fmt.Errorf("pirsearch: bucket %d out of range", b)
	}
	bc := &s.buckets[b]
	var st Stats
	st.IO.Charge(bc.colBytes * len(bc.cols))
	ex := pir.Exec{Workers: runtime.GOMAXPROCS(0), Patterns: &bc.patterns}
	answers := make([]*pir.Answer, 0, len(qs))
	for len(qs) > 0 {
		batch := qs[:min(len(qs), pir.MaxMulti)]
		qs = qs[len(batch):]
		ans, ps, err := pir.ProcessColumnsMultiExecCtx(context.Background(), bc.cols, bc.colBytes, batch, ex)
		for _, p := range ps {
			st.ModMuls += p.ModMuls
		}
		if err != nil {
			return nil, st, err
		}
		st.Runs += len(ans)
		for _, a := range ans {
			st.RowsReturned += a.Count()
		}
		answers = append(answers, ans...)
	}
	return answers, st, nil
}

// Rows returns the database height of bucket b, for traffic accounting.
func (s *Server) Rows(b int) int { return s.buckets[b].colBytes * 8 }

// Client executes the full PIR retrieval workflow for a query.
type Client struct {
	Org *bucket.Organization
	Key *pir.ClientKey
	// CryptoRand sources the QR/QNR sampling; nil selects crypto/rand.
	CryptoRand io.Reader
	// QRTests counts the quadratic-residuosity tests performed during
	// decoding, the dominant user-side cost.
	QRTests int
}

// NewClient builds a PIR client over the organization.
func NewClient(org *bucket.Organization, key *pir.ClientKey) *Client {
	return &Client{Org: org, Key: key}
}

// Search privately fetches the inverted list of every genuine term (one
// PIR run each, the runs against one bucket sent as one batch of seeded
// vectors) and scores the union locally. It returns the ranked documents
// plus combined client/server statistics.
func (c *Client) Search(srv Retriever, genuine []wordnet.TermID, k int) ([]Ranked, Stats, error) {
	var agg Stats
	acc := make(map[index.DocID]int64)
	byBucket := make(map[int][]wordnet.TermID)
	for _, t := range genuine {
		if b, ok := c.Org.BucketOf(t); ok {
			byBucket[b] = append(byBucket[b], t)
		}
	}
	for _, b := range c.Org.BucketsFor(genuine) {
		terms, cols := byBucket[b], len(c.Org.Bucket(b))
		qs := make([]*pir.Query, len(terms))
		for i, t := range terms {
			slot, _ := c.Org.SlotOf(t)
			q, err := c.Key.NewSeededQuery(c.CryptoRand, cols, slot)
			if err != nil {
				return nil, agg, err
			}
			qs[i] = q
			agg.QueryBytes += wire.SeededEntryBytes(cols, 1, 0)
		}
		answers, st, err := srv.Retrieve(b, qs)
		if err != nil {
			return nil, agg, err
		}
		agg.ModMuls += st.ModMuls
		agg.Runs += st.Runs
		agg.IO.Seeks += st.IO.Seeks
		agg.IO.Bytes += st.IO.Bytes
		agg.RowsReturned += st.RowsReturned

		for i, ans := range answers {
			agg.AnswerBytes += c.Key.AnswerBytes(ans.Count())
			bits := c.Key.Decode(ans)
			c.QRTests += len(bits)
			list, err := decodeList(pir.ColumnBytes(bits))
			if err != nil {
				return nil, agg, fmt.Errorf("pirsearch: term %d: %w", terms[i], err)
			}
			for _, p := range list {
				acc[p.Doc] += int64(p.Quantized)
			}
		}
	}
	out := make([]Ranked, 0, len(acc))
	for d, s := range acc {
		out = append(out, Ranked{Doc: d, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, agg, nil
}

// Ranked mirrors core.Ranked so the two schemes' outputs can be compared
// directly in tests and experiments.
type Ranked struct {
	Doc   index.DocID
	Score int64
}
