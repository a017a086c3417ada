package xdm

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"xrpc/internal/xmark"
)

// parse_test.go pins ParseDocument to an independent oracle: the tree
// builder over encoding/xml's RawToken that ParseDocument used before
// it moved onto the repository's own tokenizer. The two must accept and
// reject the same texts and build identical trees.

// parseOracle is the encoding/xml tree builder.
func parseOracle(uri, text string) (*Node, error) {
	doc := NewDocument(uri)
	dec := xml.NewDecoder(strings.NewReader(text))
	var stack []*Node
	cur := doc
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xml parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := NewElement(oracleName(t.Name))
			for _, a := range t.Attr {
				el.SetAttr(NewAttribute(oracleName(a.Name), a.Value))
			}
			cur.AppendChild(el)
			stack = append(stack, cur)
			cur = el
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xml parse: unbalanced end tag </%s>", oracleName(t.Name))
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if cur == doc && strings.TrimSpace(s) == "" {
				continue // ignore whitespace outside the root
			}
			if n := len(cur.Children); n > 0 && cur.Children[n-1].Kind == TextNode {
				cur.Children[n-1].Value += s
				continue
			}
			cur.AppendChild(NewText(s))
		case xml.Comment:
			cur.AppendChild(NewComment(string(t)))
		case xml.ProcInst:
			if t.Target == "xml" {
				continue // XML declaration
			}
			cur.AppendChild(NewPI(t.Target, string(t.Inst)))
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xml parse: %d unclosed element(s)", len(stack))
	}
	doc.Seal()
	return doc, nil
}

func oracleName(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}

// sameTree reports the first difference between two parsed trees, or
// "" when they agree in kind, name, value, attribute order, ordinals,
// parent links and document URI.
func sameTree(got, want *Node) string {
	if got.DocURI() != want.DocURI() {
		return fmt.Sprintf("URI %q, want %q", got.DocURI(), want.DocURI())
	}
	var walk func(g, w *Node, path string) string
	walk = func(g, w *Node, path string) string {
		if g.Kind != w.Kind || g.Name != w.Name || g.Value != w.Value || g.Ord() != w.Ord() {
			return fmt.Sprintf("%s: got %s ord %d, want %s ord %d", path, g.debugString(), g.Ord(), w.debugString(), w.Ord())
		}
		if g.TreeID() != g.Root().TreeID() {
			return path + ": node outside its root's tree"
		}
		if len(g.Attrs) != len(w.Attrs) || len(g.Children) != len(w.Children) {
			return fmt.Sprintf("%s: %d attrs %d children, want %d and %d", path, len(g.Attrs), len(g.Children), len(w.Attrs), len(w.Children))
		}
		for i, a := range g.Attrs {
			if a.Parent != g {
				return path + ": attribute parent link"
			}
			if d := walk(a, w.Attrs[i], fmt.Sprintf("%s/@%d", path, i)); d != "" {
				return d
			}
		}
		for i, c := range g.Children {
			if c.Parent != g {
				return path + ": child parent link"
			}
			if d := walk(c, w.Children[i], fmt.Sprintf("%s/%d", path, i)); d != "" {
				return d
			}
		}
		return ""
	}
	return walk(got, want, "")
}

func TestParseMatchesOracleOnXMark(t *testing.T) {
	for _, scale := range []float64{0.02, 0.1, 0.4} {
		for _, seed := range []int64{1, 42, 7717} {
			cfg := xmark.PaperConfig(scale)
			cfg.Seed = seed
			for name, text := range map[string]string{
				"persons":  xmark.GeneratePersons(cfg),
				"auctions": xmark.GenerateAuctions(cfg),
			} {
				uri := fmt.Sprintf("%s-%g-%d.xml", name, scale, seed)
				got, err := ParseDocument(uri, text)
				if err != nil {
					t.Fatalf("%s: %v", uri, err)
				}
				want, err := parseOracle(uri, text)
				if err != nil {
					t.Fatalf("%s: oracle: %v", uri, err)
				}
				if d := sameTree(got, want); d != "" {
					t.Fatalf("%s: %s", uri, d)
				}
			}
		}
	}
}

// parseSeeds are the hand-picked corner cases of the fuzz corpus: each
// exercises one check encoding/xml makes in a document.
var parseSeeds = []string{
	`<a>ok</a>`,
	"<a>bad \xff utf-8</a>",
	"<a b=\"\xc3\"/>",
	"<a>\x01 control</a>",
	"<a>&#0;</a>",
	"<a>&#xD800;&#x10FFFF;&#X41;&#65</a>",
	`<a:b:c/>`,
	`<a x:y:z="1"/>`,
	`<?a:b:c data?><r/>`,
	`<a><!-- one -- two --></a>`,
	`<a><!-- ends badly ---></a>`,
	`<a>&unknown;</a>`,
	`<a b="x<y"/>`,
	`<a b="]]>"/>`,
	`<a>]]></a>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version='1.0' encoding='utf-8'?><a/>`,
	`<!DOCTYPE a [<!ENTITY e "v"> <!-- > --> <!ELEMENT a (#PCDATA)>]><a>x</a>`,
	`<!DOCTYPE a [<!ENTITY e "v">]><a>&e;</a>`,
	`<!-x><a/>`,
	`<![CDAT[x]]><a/>`,
	"<a>line\r\nend\rx<![CDATA[c\r\nd]]><!--c\r\n--><?p d\r\n?></a>",
	`<a>x<![CDATA[y]]>z<![CDATA[]]><b/><![CDATA[]]></a>`,
	"\ufeff<a/> tail <b/>",
	`<a></b>`,
	`<a><b></a>`,
	`</a>`,
	`<1a/>`,
	`<a 1b="x"/>`,
	`<é ü="1">ö</é>`,
	`<a b='1' c="2"d='3'/>`,
	`<a b="&amp;&lt;&gt;&apos;&quot;&#x9;&#10;&#13;"/>`,
}

func FuzzParseDocument(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, err := ParseDocument("f.xml", text)
		want, werr := parseOracle("f.xml", text)
		if (err == nil) != (werr == nil) {
			t.Fatalf("accept/reject differs: ParseDocument err=%v, encoding/xml err=%v\ninput: %q", err, werr, text)
		}
		if err != nil {
			return
		}
		if d := sameTree(got, want); d != "" {
			t.Fatalf("trees differ: %s\ninput: %q", d, text)
		}
	})
}

// TestParseSeedsAgreeWithOracle runs the fuzz seeds on every `go test`,
// and checks that the corner cases meant to fail do fail.
func TestParseSeedsAgreeWithOracle(t *testing.T) {
	rejected := 0
	for _, s := range parseSeeds {
		got, err := ParseDocument("s.xml", s)
		want, werr := parseOracle("s.xml", s)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: ParseDocument err=%v, encoding/xml err=%v", s, err, werr)
		}
		if err != nil {
			rejected++
			continue
		}
		if d := sameTree(got, want); d != "" {
			t.Fatalf("%q: %s", s, d)
		}
	}
	if rejected < 20 {
		t.Fatalf("only %d of %d seeds rejected; the corner cases lost their teeth", rejected, len(parseSeeds))
	}
}

func TestParseFragmentMatchesOracle(t *testing.T) {
	const text = `<a x="1">t</a><!--c--><b/>tail`
	got, err := ParseFragment(text)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parseOracle("", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(doc.Children) {
		t.Fatalf("%d nodes, want %d", len(got), len(doc.Children))
	}
	trees := map[int64]bool{}
	for i, n := range got {
		want := doc.Children[i]
		want.Parent = nil
		want.Seal()
		if n.Parent != nil || trees[n.TreeID()] {
			t.Fatalf("fragment %d is not its own tree", i)
		}
		trees[n.TreeID()] = true
		if d := sameTree(n, want); d != "" {
			t.Fatalf("fragment %d: %s", i, d)
		}
	}
}

// TestParseMergesTextRunsInLinearTime is the regression test for the
// quadratic text merge: 400k alternating text and CDATA pieces form one
// text node, joined in linear time (appending piece by piece took
// 0.9 s for 40k pieces).
func TestParseMergesTextRunsInLinearTime(t *testing.T) {
	const pieces = 400_000
	text := "<a>" + strings.Repeat("x<![CDATA[y]]>", pieces/2) + "</a>"
	start := time.Now()
	doc, err := ParseDocument("long.xml", text)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("parsing %d text pieces took %v", pieces, took)
	}
	el := doc.Children[0]
	if len(el.Children) != 1 || el.Children[0].Value != strings.Repeat("xy", pieces/2) {
		t.Fatalf("run not merged into one text node: %d children", len(el.Children))
	}
}

func auctionsText() string { return xmark.GenerateAuctions(xmark.PaperConfig(0.1)) }

// TestParseDocumentAllocGuard keeps the parser at no more than half the
// allocations of the encoding/xml builder on the same document.
func TestParseDocumentAllocGuard(t *testing.T) {
	text := auctionsText()
	got := testing.AllocsPerRun(3, func() {
		if _, err := ParseDocument("a.xml", text); err != nil {
			t.Fatal(err)
		}
	})
	oracle := testing.AllocsPerRun(3, func() {
		if _, err := parseOracle("a.xml", text); err != nil {
			t.Fatal(err)
		}
	})
	if got*2 > oracle {
		t.Fatalf("ParseDocument allocates %.0f objects per parse, more than half of encoding/xml's %.0f", got, oracle)
	}
}

// BenchmarkParseDocument parses the Q7 auctions document (XMark, scale
// 0.1), the text the §4 wrapper re-parses on every request.
func BenchmarkParseDocument(b *testing.B) {
	text := auctionsText()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ParseDocument("auctions.xml", text); err != nil {
			b.Fatal(err)
		}
	}
}
