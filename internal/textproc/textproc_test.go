package textproc

import (
	"reflect"
	"testing"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Osteosarcoma Therapy, accelerated!")
	want := []string{"osteosarcoma", "therapy", "accelerated"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeApostropheAndHyphen(t *testing.T) {
	got := Tokenize("fool's gold; a yellow-breasted bunting")
	want := []string{"fool's", "gold", "a", "yellow-breasted", "bunting"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeTrailingPunct(t *testing.T) {
	got := Tokenize("end- of' line")
	want := []string{"end", "of", "line"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndSymbols(t *testing.T) {
	if got := Tokenize("  ... !!! "); len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestTokenizeDigits(t *testing.T) {
	got := Tokenize("wsj 1987 q3")
	want := []string{"wsj", "1987", "q3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestStopwordRemoval(t *testing.T) {
	a := NewAnalyzer()
	got := a.Analyze("the radiation of the therapy is in a hospital")
	want := []string{"radiation", "therapy", "hospital"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAnalyzerNoStemByDefault(t *testing.T) {
	// The paper's setup performs "stopword removal but not stemming".
	a := NewAnalyzer()
	got := a.Analyze("running runners")
	want := []string{"running", "runners"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAnalyzerStemOption(t *testing.T) {
	a := NewAnalyzer()
	a.Stem = true
	got := a.Analyze("running quickly connected")
	want := []string{"run", "quickli", "connect"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestPorterStemVectors(t *testing.T) {
	// Canonical vectors from Porter's paper.
	vectors := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"formaliti":    "formal",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
	}
	for in, want := range vectors {
		if got := PorterStem(in); got != want {
			t.Errorf("PorterStem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPorterStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "is", "be"} {
		if got := PorterStem(w); got != w {
			t.Errorf("PorterStem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestDictionaryMatcherFuse(t *testing.T) {
	m := NewDictionaryMatcher([]string{
		"abu sayyaf", "residual nitrogen time", "water", "abu sayyaf group",
	})
	got := m.Fuse(nil, []string{"the", "abu", "sayyaf", "group", "claimed", "residual", "nitrogen", "time"})
	want := []string{"the", "abu sayyaf group", "claimed", "residual nitrogen time"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDictionaryMatcherLongestFirst(t *testing.T) {
	m := NewDictionaryMatcher([]string{"radiation therapy", "accelerated radiation therapy"})
	got := m.Fuse(nil, []string{"accelerated", "radiation", "therapy"})
	want := []string{"accelerated radiation therapy"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDictionaryMatcherPartialNoMatch(t *testing.T) {
	m := NewDictionaryMatcher([]string{"abu sayyaf"})
	got := m.Fuse(nil, []string{"abu", "dhabi"})
	want := []string{"abu", "dhabi"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAnalyzerWithMatcher(t *testing.T) {
	a := NewAnalyzer()
	a.Matcher = NewDictionaryMatcher([]string{"sign of the zodiac"})
	got := a.Analyze("the sign of the zodiac is rising")
	// The compound fuses before stopword removal, so the inner 'of the'
	// survives as part of the lemma.
	want := []string{"sign of the zodiac", "rising"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDefaultStopwordsIndependentCopies(t *testing.T) {
	a := DefaultStopwords()
	b := DefaultStopwords()
	a["zebra"] = true
	if b["zebra"] {
		t.Fatal("stopword sets share storage")
	}
	if !a["the"] || !a["a"] {
		t.Fatal("canonical stopwords missing")
	}
}
