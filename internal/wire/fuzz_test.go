package wire

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"testing"

	"embellish/internal/detrand"
	"embellish/internal/docstore"
	"embellish/internal/pir"
	"embellish/internal/vbyte"
)

// FuzzDecodeQuery: a hostile peer controls the query body entirely;
// decoding must never panic or over-allocate, only return errors or a
// structurally valid query.
func FuzzDecodeQuery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x81, 7, 0x81, 3, 0x81, 5, 0x81, 0x80})
	f.Add(forgedCountFrames()[TypeQuery])
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := DecodeQuery(body)
		if err != nil {
			return
		}
		for i, e := range q.Entries {
			if e.Flag == nil || e.Flag.Sign() <= 0 || e.Flag.Cmp(q.Pub.N) >= 0 {
				t.Fatalf("entry %d flag escaped validation", i)
			}
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeQuery for the response path, and
// holds the slab decoder to the per-candidate one: the same refusal, or
// the same candidates.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte{0x80})
	f.Add(bytes.Repeat([]byte{0x81}, 16))
	f.Add(forgedCountFrames()[TypeResponse])
	f.Add([]byte{0x83, 0x81, 0x80, 0x82, 0x89, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x83, 0x82, 0, 7, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantSt, wantErr := refDecodeResponse(body)
		cands, st, err := DecodeResponse(body)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("slab decoder says %v, per-candidate decoder %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if st != wantSt || len(cands) != len(want) {
			t.Fatalf("%d candidates with stats %+v, per-candidate decoder %d with %+v", len(cands), st, len(want), wantSt)
		}
		for i, c := range cands {
			if c.Enc == nil {
				t.Fatalf("candidate %d has nil ciphertext", i)
			}
			if c.Doc != want[i].Doc || c.Enc.Cmp(want[i].Enc) != 0 {
				t.Fatalf("candidate %d is doc %d, %x, per-candidate decoder doc %d, %x", i, c.Doc, c.Enc, want[i].Doc, want[i].Enc)
			}
		}
	})
}

// FuzzDecodeMessage drives the full server-side dispatch: a hostile
// peer controls the type byte and the body, and every decoder behind
// it must return clean errors or validated structures, never panic or
// over-allocate. Seeded with one valid body per message type.
func FuzzDecodeMessage(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ, body := data[0], data[1:]
		switch typ {
		case TypeQuery:
			_, _ = DecodeQuery(body)
		case TypeResponse:
			_, _, _ = DecodeResponse(body)
		case TypeBatchQuery:
			_, _ = DecodeBatchQuery(body)
		case TypeBatchResponse:
			_, _, _ = DecodeBatchResponse(body)
		case TypeAddDocs:
			_, _ = DecodeAddDocs(body)
		case TypeDeleteDocs:
			_, _ = DecodeDeleteDocs(body)
		case TypeAdminOK:
			_, _, _ = DecodeAdminOK(body)
		case TypePIRParams:
			// The body is a request — empty or the hello — or a reply: the
			// table alone or a reply to the hello.
			if d, err := DecodePIRHello(body); err == nil && d == nil && len(body) != 1 {
				t.Fatalf("a %d-byte hello decoded as the single 0", len(body))
			}
			checkExtents := func(p docstore.Params) {
				for i, ext := range p.Exts {
					if int(ext.First)+int(ext.Blocks) > p.NumBlocks {
						t.Fatalf("extent %d escaped validation", i)
					}
				}
			}
			if p, err := DecodePIRParams(body); err == nil {
				checkExtents(p)
			}
			if r, err := DecodePIRParamsReply(body); err == nil {
				if r.Changed && digestTable(body[1+ParamsDigestBytes+1:]) != r.Digest {
					t.Fatal("a changed reply's digest escaped validation")
				}
				checkExtents(r.Params)
			}
		// Types 10 and 11 are retired: no decoder reads them.
		case TypePIRBatchQuery:
			if qs, err := DecodePIRBatchQuery(body); err == nil {
				for i, q := range qs {
					for j, v := range q.Values {
						if v == nil || v.Sign() <= 0 || v.Cmp(q.N) >= 0 {
							t.Fatalf("batch query %d value %d escaped validation", i, j)
						}
					}
				}
			}
		case TypePIRBatchResponse:
			if _, a, err := DecodePIRBatchAnswer(body); err == nil && a.Count() == 0 {
				t.Fatal("an answer of no gammas escaped validation")
			}
		case TypePIRRecursiveQuery:
			if qs, err := DecodePIRRecursiveQuery(body); err == nil {
				for i, q := range qs {
					for _, vec := range [][]*big.Int{q.Rows, q.Cols} {
						for j, v := range vec {
							if v == nil || v.Sign() <= 0 || v.Cmp(q.N) >= 0 {
								t.Fatalf("recursive query %d value %d escaped validation", i, j)
							}
						}
					}
				}
			}
		case TypeStats:
			_, _ = DecodeStats(body)
		case TypeLexiconSync:
			_, _ = DecodeLexiconSync(body)
		case TypeLexicon:
			if l, err := DecodeLexicon(body); err == nil && !l.Current {
				if len(l.Org) == 0 || len(l.Lex) == 0 || l.ScoreSpace <= 0 {
					t.Fatal("full lexicon payload escaped validation")
				}
			}
		case TypeDecoyQuery:
			// Same grammar as TypeQuery; the type byte only marks cover
			// traffic, so the query decoder must hold up here too.
			if q, err := DecodeQuery(body); err == nil {
				for i, e := range q.Entries {
					if e.Flag == nil || e.Flag.Sign() <= 0 || e.Flag.Cmp(q.Pub.N) >= 0 {
						t.Fatalf("decoy entry %d flag escaped validation", i)
					}
				}
			}
		case TypeRiskAudit:
			_, _ = DecodeRiskAudit(body)
		}
	})
}

// seedFrames adds one valid encoded body (type byte prepended) per
// message type, so the fuzzer starts from the accepted grammar.
func seedFrames(f *testing.F) {
	add := func(write func(w *bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		typ, body, err := ReadMessage(&buf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{typ}, body...))
	}
	key, err := pir.GenerateKey(detrand.New("fuzz-seed"), 96)
	if err != nil {
		f.Fatal(err)
	}
	q, err := key.NewSeededQuery(detrand.New("fuzz-seed-q"), 3, 1)
	if err != nil {
		f.Fatal(err)
	}
	q.Height = 1
	f.Add(append([]byte{10}, appendPrefixed(appendBig(nil, q.N), q.Values...)...)) // retired
	add(func(w *bytes.Buffer) error { return WritePIRBatchQuery(w, []*pir.Query{q, q}) })
	add(func(w *bytes.Buffer) error { return WritePIRBatchQuery(w, []*pir.Query{q, q.Next(), q.Next().Next()}) })
	add(func(w *bytes.Buffer) error {
		return WritePIRBatchQuery(w, writtenOut([]*pir.Query{q, q.Next(), q.Next().Next()}))
	})
	for _, bodies := range []map[string][]byte{rotationBodies(), seededBodies()} {
		for _, body := range bodies {
			f.Add(append([]byte{TypePIRBatchQuery}, body...))
		}
	}
	rq, err := key.NewRecursiveQuery(detrand.New("fuzz-seed-rq"), 9, 4)
	if err != nil {
		f.Fatal(err)
	}
	add(func(w *bytes.Buffer) error { return WritePIRRecursiveQuery(w, []*pir.RecursiveQuery{rq, rq}) })
	f.Add(append([]byte{TypePIRBatchResponse}, appendPrefixed([]byte{0x81}, big.NewInt(5), big.NewInt(9))...)) // length-prefixed, retired
	add(func(w *bytes.Buffer) error {
		return WritePIRParams(w, docstore.Params{BlockSize: 8, NumBlocks: 3, Exts: []docstore.Extent{
			{First: 0, Blocks: 2, Length: 9}, {First: 2, Blocks: 1, Length: 4, Deleted: true}}})
	})
	f.Add(append([]byte{11}, appendPrefixed(nil, big.NewInt(5), big.NewInt(9))...)) // retired
	// The hello, its two replies and the packed answers.
	mapping := docstore.Params{BlockSize: 8, NumBlocks: 3, Exts: []docstore.Extent{
		{First: 0, Blocks: 2, Length: 9}, {First: 2, Blocks: 1, Length: 4, Deleted: true}}}
	digest := DigestPIRParams(mapping)
	add(func(w *bytes.Buffer) error { return WritePIRHello(w, nil) })
	add(func(w *bytes.Buffer) error { return WritePIRHello(w, &digest) })
	add(func(w *bytes.Buffer) error { return WritePIRHelloReply(w, mapping, &digest) })
	add(func(w *bytes.Buffer) error { return WritePIRHelloReply(w, mapping, nil) })
	add(func(w *bytes.Buffer) error {
		return WritePIRBatchAnswerPacked(w, 1, imageOf(big.NewInt(1000), big.NewInt(5), big.NewInt(999)), big.NewInt(1000))
	})
	retired := imageOf(key.N, big.NewInt(5), big.NewInt(9))
	f.Add(append(vbyte.Append(vbyte.Append(vbyte.Append([]byte{11}, 0), uint64(retired.Width)), 2), retired.Image...)) // retired
	add(func(w *bytes.Buffer) error { return WriteAddDocs(w, []DocText{{ID: 0, Text: "seed doc"}}) })
	add(func(w *bytes.Buffer) error { return WriteDeleteDocs(w, []uint32{3, 7}) })
	add(func(w *bytes.Buffer) error { return WriteAdminOK(w, 10, 2) })
	add(func(w *bytes.Buffer) error { return WriteError(w, "seed error") })
	add(func(w *bytes.Buffer) error {
		return WriteStats(w, Stats{StatAccepted: 12, StatQueries: 99, StatQueryNs: 1 << 40, StatInflight: 3,
			StatQueued: 2, StatShedQueueFull: 1, StatDurable: 1, StatWALSeq: 77, StatWALCheckpointSeq: 70})
	})
	add(func(w *bytes.Buffer) error { return WriteLexiconSync(w, 0) })
	add(func(w *bytes.Buffer) error { return WriteLexiconSync(w, 0xdeadbeef) })
	add(func(w *bytes.Buffer) error {
		return WriteLexicon(w, Lexicon{Version: 7, Current: true})
	})
	add(func(w *bytes.Buffer) error {
		return WriteLexicon(w, Lexicon{Version: 7, ScoreSpace: 12, KeyBits: 192, Stopwords: true,
			Org: []byte("EBKT-seed-org"), Lex: []byte("ELEX-seed-db")})
	})
	add(func(w *bytes.Buffer) error {
		return WriteRaw(w, TypeDecoyQuery, []byte{0x81, 7, 0x81, 3, 0x81, 5, 0x81, 0x80})
	})
	add(func(w *bytes.Buffer) error { return WriteRiskAuditRequest(w) })
	// The ranking decoders' forged counts: the fewest bytes that name the
	// most elements.
	for typ, body := range forgedCountFrames() {
		f.Add(append([]byte{typ}, body...))
	}
	add(func(w *bytes.Buffer) error {
		return WriteRiskAudit(w, RiskAudit{Queries: 9, Decoys: 36, Audited: 9,
			RiskSumMicros: 123456, MaxRiskMicros: 40000, Rounds: 9, RoundHits: 3,
			CoherenceGenuineSumMicros: 9e6, CoherenceDecoySumMicros: 30e6})
	})
}

// FuzzPIRQuery goes one layer deeper than FuzzDecodeMessage for one
// query: every body is read as the one entry of a written-out type-12
// frame at height 1 — a modulus, a value count and the values, the
// layout the retired type 10 carried — and as a whole type-12 body, and
// what decodes is served against a real block store and held to the
// sequential oracle (checkPIRBatchBody), so the executor, not just the
// decoder, holds up under hostile queries.
func FuzzPIRQuery(f *testing.F) {
	key, err := pir.GenerateKey(detrand.New("fuzz-pir"), 96)
	if err != nil {
		f.Fatal(err)
	}
	for target := 0; target < 3; target++ {
		q, err := key.NewQuery(detrand.New("fuzz-pir-q"), 3, target)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(appendPrefixed(appendBig(nil, q.N), q.Values...))
	}
	// The encodings no writer produces (zero-led, empty, multi-word,
	// over-limit, truncated, out-of-range magnitudes), each between two
	// honest values of a three-value query.
	honest := appendBig(nil, big.NewInt(1234567))
	for _, h := range hostileElements() {
		body := vbyte.Append(appendBig(nil, key.N), 3)
		f.Add(bytes.Join([][]byte{body, honest, h.enc, honest}, nil))
	}
	seedRotationFrames(f, key)
	sn := fuzzStore(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkPIRBatchBody(t, sn, body)
		if _, rest, err := decodeBig(body); err == nil {
			if _, used, err := vbyte.Decode(rest); err == nil {
				modulus := body[:len(body)-len(rest)]
				one := vbyte.Append(nil, 1)
				checkPIRBatchBody(t, sn, bytes.Join([][]byte{modulus, one, rest[:used], one, rest[used:]}, nil))
			}
		}
	})
}

// fuzzStore is the six-block store the PIR fuzz targets serve from.
func fuzzStore(f *testing.F) *docstore.Snapshot {
	store, err := docstore.New(4)
	if err != nil {
		f.Fatal(err)
	}
	for i, text := range []string{"alpha", "beta", "gamma gamma"} {
		if err := store.Add(i, []byte(text)); err != nil {
			f.Fatal(err)
		}
	}
	return store.Snapshot()
}

// seedRotationFrames seeds type-12 bodies with rotation entries: what
// the fetch generator produces for documents of 3, 1 and 2 blocks —
// seeded, and written out as a router forwards it — and the hand-built
// shapes of both forms.
func seedRotationFrames(f *testing.F, key *pir.ClientKey) {
	for _, qs := range [][]*pir.Query{documentQueries(f, key, 3, 3, 1, 2), documentQueries(f, key, 6, 3, 3)} {
		f.Add(batchBody(f, qs))
		f.Add(batchBody(f, writtenOut(qs)))
	}
	for _, bodies := range []map[string][]byte{rotationBodies(), seededBodies()} {
		for _, body := range bodies {
			f.Add(body)
		}
	}
}

// FuzzPIRBatchQuery drives the serving path with hostile batch frames:
// bodies that survive DecodePIRBatchQuery are answered in ONE database
// pass (docstore.AnswerMultiExecCtx), and every answer must be
// byte-identical to the per-query oracle — so the Montgomery one-pass
// kernel is fuzzed against the sequential path, not just the decoder
// grammar.
func FuzzPIRBatchQuery(f *testing.F) {
	key, err := pir.GenerateKey(detrand.New("fuzz-pir-batch"), 96)
	if err != nil {
		f.Fatal(err)
	}
	for _, targets := range [][]int{{0}, {0, 2}, {1, 1, 2}} {
		qs := make([]*pir.Query, len(targets))
		for i, target := range targets {
			q, err := key.NewQuery(detrand.New("fuzz-pir-batch-q"), 3, target)
			if err != nil {
				f.Fatal(err)
			}
			q.Height = 1
			qs[i] = q
		}
		f.Add(batchBody(f, qs))
	}
	seedRotationFrames(f, key)
	sn := fuzzStore(f)
	// A one-column vector and its rotation at heights 1, 2, H and H+1 —
	// the two shortest views, the tallest (empty in this store) and none —
	// seeded and written out; height 0 is among the hand-built bodies.
	top := docstore.Heights(sn.BlockSize())
	for _, h := range []int{1, 2, top, top + 1} {
		q, err := key.NewSeededQuery(detrand.New(fmt.Sprintf("fuzz-heights-%d", h)), 1, 0)
		if err != nil {
			f.Fatal(err)
		}
		q.Height = h
		qs := []*pir.Query{q, q.Next()}
		f.Add(batchBody(f, qs))
		f.Add(batchBody(f, writtenOut(qs)))
	}
	// The encodings no writer produces (zero-led, empty, multi-word,
	// over-limit, truncated, out-of-range magnitudes), each between two
	// honest values of the one three-value entry of a written-out frame.
	honest := appendBig(nil, big.NewInt(1234567))
	for _, h := range hostileElements() {
		head := vbyte.Append(vbyte.Append(vbyte.Append(appendBig(nil, key.N), 1), 3), 1)
		f.Add(bytes.Join([][]byte{head, honest, h.enc, honest}, nil))
	}
	// An in-range frame at an even modulus, which the executor refuses.
	even := vbyte.Append(vbyte.Append(vbyte.Append(appendBig(nil, big.NewInt(1<<40)), 1), 3), 1)
	f.Add(bytes.Join([][]byte{even, honest, honest, honest}, nil))
	f.Fuzz(func(t *testing.T, body []byte) { checkPIRBatchBody(t, sn, body) })
}

// checkPIRBatchBody holds one type-12 body to the decoder's and the
// executor's contracts. A body that decodes must decode to validated
// values; written again — rotation entries where the decoded queries are
// rotations — and written in full, it must decode to the same queries
// both times, so no rotation entry means anything but the vector before
// it one column up; and served in one pass, rotations aliasing their
// vectors, every answer must be the per-query oracle's — when the
// modulus has a Montgomery form (pir.NewMont). Without one the batch is
// refused whole, before any work.
func checkPIRBatchBody(t *testing.T, sn *docstore.Snapshot, body []byte) {
	qs, err := DecodePIRBatchQuery(body)
	if err != nil {
		return
	}
	for i, q := range qs {
		for j, v := range q.Values {
			if v == nil || v.Sign() <= 0 || v.Cmp(q.N) >= 0 {
				t.Fatalf("batch query %d value %d escaped validation", i, j)
			}
		}
	}
	sameQueries(t, "written again", mustDecodeBatch(t, batchBody(t, qs)), qs)
	sameQueries(t, "written in full", mustDecodeBatch(t, batchBody(t, inFull(qs))), qs)
	// Decoded against the store, a frame is refused exactly when one of
	// its entries names no view or is wider than its view — what the
	// executor would refuse.
	widths := sn.Layout().Widths()
	inRange := true
	for _, q := range qs {
		if q.Height < 1 {
			t.Fatalf("an entry at height %d decoded", q.Height)
		}
		if q.Height >= len(widths) || len(q.Values) > widths[q.Height] {
			inRange = false
		}
	}
	if _, err := DecodePIRBatchQueryWithin(body, widths); (err == nil) != inRange {
		t.Fatalf("decoded against views %v: %v, in range: %v", widths, err, inRange)
	}
	// Serve decoded queries only at sane moduli — the decoder accepts up
	// to 8192-bit N, a deliberate serving-cost ceiling too slow for
	// per-input fuzz iterations — and under the executor's equal-shape
	// contract: mixed frames are grouped by the server before
	// reaching it, so the fuzz serves only uniform batches and requires a
	// clean refusal otherwise.
	for _, q := range qs {
		if q.N.BitLen() > 512 || !inRange {
			return
		}
	}
	uniform := true
	for _, q := range qs[1:] {
		if len(q.Values) != len(qs[0].Values) || q.Height != qs[0].Height {
			uniform = false
			break
		}
	}
	answers, stats, err := sn.AnswerMultiExecCtx(context.Background(), qs, pir.Exec{})
	if !uniform {
		if err == nil {
			t.Fatal("mixed-shape batch served without error")
		}
		return
	}
	if _, merr := pir.NewMont(qs[0].N); merr != nil {
		if err == nil || answers != nil {
			t.Fatalf("batch at a modulus without a Montgomery form (%v) served: %v", merr, err)
		}
		for i, st := range stats {
			if st != (pir.Stats{}) {
				t.Fatalf("refused batch charged query %d with %+v", i, st)
			}
		}
		return
	}
	if err != nil {
		t.Fatalf("in-range decoded batch refused: %v", err)
	}
	for i, q := range qs {
		ref, _, err := sn.AnswerCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("per-query reference %d refused: %v", i, err)
		}
		if answers[i].Width != ref.Width || !bytes.Equal(answers[i].Image, ref.Image) {
			t.Fatalf("query %d: one-pass answer of %d gammas diverges from the per-query reference's %d", i, answers[i].Count(), ref.Count())
		}
	}
}

// FuzzPIRRecursiveQuery drives the recursive serving path with hostile
// type-23 frames: forged counts, oversized selection vectors,
// mismatched grid dimensions and truncated bodies must all fail in the
// decoder or the pir shape validation — never panic, never
// over-allocate — and bodies that survive are served with two different
// execution tunings whose ciphertexts must agree (the fast kernels
// against themselves under a different worker/window split). A modulus
// without a Montgomery form (pir.NewMont) is refused by both, before
// any work.
func FuzzPIRRecursiveQuery(f *testing.F) {
	key, err := pir.GenerateKey(detrand.New("fuzz-pir-rec"), 96)
	if err != nil {
		f.Fatal(err)
	}
	wordKey, err := pir.GenerateKey(detrand.New("fuzz-pir-rec-word"), 64)
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range []*pir.ClientKey{key, wordKey} {
		for target := 0; target < 3; target++ {
			q, err := k.NewRecursiveQuery(detrand.New("fuzz-pir-rec-q"), 3, target)
			if err != nil {
				f.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WritePIRRecursiveQuery(&buf, []*pir.RecursiveQuery{q}); err != nil {
				f.Fatal(err)
			}
			_, body, err := ReadMessage(&buf)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	// A grid wider than the six-block store: the cells past it are absent.
	wide, err := wordKey.NewRecursiveQuery(detrand.New("fuzz-pir-rec-wide"), 9, 7)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePIRRecursiveQuery(&buf, []*pir.RecursiveQuery{wide}); err != nil {
		f.Fatal(err)
	}
	if _, body, err := ReadMessage(&buf); err == nil {
		f.Add(body)
	}
	// The encodings no writer produces, each as the middle row value of a
	// width-3 query (a 3×1 grid: three row values, one column value).
	honest := appendBig(nil, big.NewInt(1234567))
	for _, h := range hostileElements() {
		head := encodeRecursive(wordKey.N, 3, 1, 1, nil)
		f.Add(bytes.Join([][]byte{head, honest, h.enc, honest, honest}, nil))
	}
	// A well-formed frame at an even modulus, which the executor refuses.
	even := encodeRecursive(big.NewInt(1<<40), 3, 1, 1, nil)
	f.Add(bytes.Join([][]byte{even, honest, honest, honest, honest}, nil))
	store, err := docstore.New(4)
	if err != nil {
		f.Fatal(err)
	}
	for i, text := range []string{"alpha", "beta", "gamma gamma"} {
		if err := store.Add(i, []byte(text)); err != nil {
			f.Fatal(err)
		}
	}
	sn := store.Snapshot()
	f.Fuzz(func(t *testing.T, body []byte) {
		qs, err := DecodePIRRecursiveQuery(body)
		if err != nil {
			return
		}
		for i, q := range qs {
			for _, vec := range [][]*big.Int{q.Rows, q.Cols} {
				for j, v := range vec {
					if v == nil || v.Sign() <= 0 || v.Cmp(q.N) >= 0 {
						t.Fatalf("recursive query %d value %d escaped validation", i, j)
					}
				}
			}
		}
		// Serving-cost ceiling, as in checkPIRBatchBody: the decoder's caps
		// are deliberate protocol bounds far above what a fuzz iteration
		// can afford to scan.
		for _, q := range qs {
			if q.N.BitLen() > 512 || q.Width > 64 || len(qs)*q.Width > 128 {
				return
			}
		}
		a1, s1, err1 := sn.AnswerRecursiveMultiExecCtx(context.Background(), qs, pir.Exec{Workers: 1, Window: 1})
		a2, s2, err2 := sn.AnswerRecursiveMultiExecCtx(context.Background(), qs, pir.Exec{Workers: 3, Window: 4})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("execution tunings disagree on validity: %v vs %v", err1, err2)
		}
		if _, merr := pir.NewMont(qs[0].N); merr != nil {
			if err1 == nil || a1 != nil || a2 != nil {
				t.Fatalf("recursive batch at a modulus without a Montgomery form (%v) served: %v", merr, err1)
			}
			for i, st := range append(s1, s2...) {
				if st != (pir.Stats{}) {
					t.Fatalf("refused recursive batch charged entry %d with %+v", i, st)
				}
			}
			return
		}
		if err1 != nil {
			return
		}
		modBytes := (qs[0].N.BitLen() + 7) / 8
		for i := range qs {
			want := 8 * sn.BlockSize() * modBytes // one ciphertext per image byte
			if a1[i].Width != modBytes || a1[i].Count() != want {
				t.Fatalf("query %d: answer holds %d gammas of %d bytes, want %d of %d", i, a1[i].Count(), a1[i].Width, want, modBytes)
			}
			for j := range want {
				if new(big.Int).SetBytes(a1[i].Image[j*modBytes:(j+1)*modBytes]).Cmp(qs[i].N) >= 0 {
					t.Fatalf("query %d gamma %d escaped the group", i, j)
				}
			}
			if !bytes.Equal(a1[i].Image, a2[i].Image) {
				t.Fatalf("query %d: tunings diverge", i)
			}
		}
	})
}

// FuzzReadMessage: arbitrary streams must produce clean errors.
func FuzzReadMessage(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(body)+1+4 > len(data) {
			t.Fatalf("type %d: body longer than input", typ)
		}
	})
}

// FuzzPIRAnswerView holds the in-place reading of a TypePIRBatchResponse
// body to the decoder: ViewPIRBatchAnswer and DecodePIRBatchAnswer accept
// and refuse exactly the same bodies, refuse every body whose answer does
// not open with the packed form's 0 — the retired length-prefixed form
// among them — and agree on the index, the width and the gamma count. A
// view is zero-copy — its image is the tail of the body itself, count ×
// width bytes — and the decoder's answer holds the same image in memory
// of its own.
func FuzzPIRAnswerView(f *testing.F) {
	n := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(59))
	gammas := []*big.Int{big.NewInt(0), big.NewInt(5), new(big.Int).Sub(n, big.NewInt(1)), new(big.Int).Rsh(n, 7)}
	var image []byte
	for _, g := range gammas {
		image = append(image, g.FillBytes(make([]byte, 8))...)
	}
	for _, index := range []uint64{0, 1, MaxPIRBatch - 1, MaxPIRBatch} {
		head := vbyte.Append(nil, index)
		packed := append(vbyte.Append(vbyte.Append(vbyte.Append(bytes.Clone(head), 0), 8), uint64(len(gammas))), image...)
		f.Add(packed)
		f.Add(packed[:len(packed)-1])
		f.Add(appendPrefixed(bytes.Clone(head), gammas...))
	}
	for _, tail := range [][]byte{
		{0x80},                         // a packed mark and nothing after it
		{0x80, 0x80, 0x81},             // width 0
		{0x80, 0x88, 0x80},             // count 0
		{0x80, 0x88, 0x82, 1, 2, 3},    // count × width past the body
		{0x80, 0x81, 0x82, 7, 9, 0xff}, // one byte over
		{0x80, 0x81, 0x81, 0xff},       // one all-ones byte
	} {
		f.Add(append([]byte{0x81}, tail...))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		v, verr := ViewPIRBatchAnswer(body)
		idx, a, derr := DecodePIRBatchAnswer(body)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("view error %v, decode error %v", verr, derr)
		}
		if verr != nil {
			return
		}
		if _, used, _ := vbyte.Decode(body); !startsPacked(body[used:]) {
			t.Fatal("a body whose answer does not open with the packed form's 0 was accepted")
		}
		if v.Index != idx || v.Count != a.Count() || v.Width != a.Width {
			t.Fatalf("view reads index %d, %d gammas of %d bytes; decoder %d, %d of %d", v.Index, v.Count, v.Width, idx, a.Count(), a.Width)
		}
		if v.Width <= 0 || v.Count*v.Width != len(v.Image) {
			t.Fatalf("packed view of %d %d-byte gammas holds %d bytes", v.Count, v.Width, len(v.Image))
		}
		if tail := body[len(body)-len(v.Image):]; &tail[0] != &v.Image[0] {
			t.Fatal("the packed view copied its image out of the body")
		}
		if !bytes.Equal(a.Image, v.Image) || &a.Image[0] == &v.Image[0] {
			t.Fatal("the decoder's image is not a copy of the view's")
		}
	})
}

// startsPacked reports whether an answer opens with a vbyte 0, the mark
// of the packed form.
func startsPacked(answer []byte) bool {
	v, _, err := vbyte.Decode(answer)
	return err == nil && v == 0
}
