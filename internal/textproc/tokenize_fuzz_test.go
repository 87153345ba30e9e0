package textproc

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// referenceTokenize is the rune-by-rune tokenizer Tokenize replaced, kept
// verbatim as the oracle: every rune decoded, every letter or digit
// lowercased into a builder, every token copied out of it.
func referenceTokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, trimPunct(b.String()))
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case (r == '\'' || r == '-') && b.Len() > 0:
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	// trimPunct may produce empty strings for pure-punctuation runs.
	out := tokens[:0]
	for _, t := range tokens {
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}

// trimPunct removes trailing apostrophes/hyphens left by the scanner.
func trimPunct(s string) string {
	return strings.TrimRight(s, "'-")
}

// tokenizeSeeds cover each branch of Tokenize's scan: ASCII case, runes
// whose lowercase differs in width (İ, the Kelvin sign) or is a
// titlecase pair (ǅ), non-ASCII digits, invalid UTF-8 inside and around
// tokens, and apostrophe/hyphen runs at both ends of a token.
var tokenizeSeeds = []string{
	"",
	"Osteosarcoma Therapy, accelerated!",
	"MiXeD cAsE WSJ 1987 q3",
	"İstanbul ǅemal ǈ \u212Aelvin-band ΣΊΣΥΦΟΣ straße",
	"٣٤٥ digits ۱۲ and ５ full-width",
	"a\xffb \xc3 \xe2\x82 tail\x80",
	"\xff\xfeStart end\xed\xa0\x80",
	"'-'lead ''--trail'-'- mid-'-word fool's-- -'",
	"--- ''' -'- ' -",
	"x'y-z 'quoted' -dashed- ROCK'N'ROLL",
	"tab\tnew\nline\r\nnbsp\u00a0zwj\u200dword",
	"combining e\u0301 marks A\u0308",
}

// FuzzTokenize holds Tokenize to the reference for every input; plain
// go test runs the seeds.
func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Tokenize(s), referenceTokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	})
}
