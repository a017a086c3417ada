package soap

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"xrpc/internal/xdm"
)

func TestEncodeRequestMatchesPaperExample(t *testing.T) {
	// §2.1: the request message for Q1 (filmsByActor("Sean Connery")).
	req := &Request{
		Module:   "films",
		Method:   "filmsByActor",
		Arity:    1,
		Location: "http://x.example.org/film.xq",
		Calls:    [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	}
	msg := string(EncodeRequest(req))
	for _, want := range []string{
		`xmlns:xrpc="http://monetdb.cwi.nl/XQuery"`,
		`xmlns:env="http://www.w3.org/2003/05/soap-envelope"`,
		`xrpc:module="films"`,
		`xrpc:method="filmsByActor"`,
		`xrpc:arity="1"`,
		`xrpc:location="http://x.example.org/film.xq"`,
		`<xrpc:call>`,
		`<xrpc:sequence>`,
		`xsi:type="xs:string"`,
		`Sean Connery`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("request message missing %q\n%s", want, msg)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	qid := &QueryID{
		ID:        "q-123",
		Host:      "xrpc://a.example.org",
		Timestamp: time.Date(2007, 9, 23, 12, 0, 0, 0, time.UTC),
		Timeout:   30,
	}
	req := &Request{
		Module:   "films",
		Method:   "filmsByActor",
		Arity:    1,
		Location: "http://x.example.org/film.xq",
		Updating: true,
		QueryID:  qid,
		Calls: [][]xdm.Sequence{
			{{xdm.String("Julie Andrews")}},
			{{xdm.String("Sean Connery")}},
		},
	}
	back, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if back.Module != "films" || back.Method != "filmsByActor" || back.Arity != 1 {
		t.Fatalf("header = %+v", back)
	}
	if !back.Updating {
		t.Error("updating flag lost")
	}
	if back.QueryID == nil || back.QueryID.ID != "q-123" || back.QueryID.Timeout != 30 {
		t.Fatalf("queryID = %+v", back.QueryID)
	}
	if !back.QueryID.Timestamp.Equal(qid.Timestamp) {
		t.Errorf("timestamp = %v", back.QueryID.Timestamp)
	}
	if len(back.Calls) != 2 {
		t.Fatalf("calls = %d", len(back.Calls))
	}
	if got := back.Calls[1][0][0].StringValue(); got != "Sean Connery" {
		t.Errorf("call 1 param = %q", got)
	}
}

// §2.1: the heterogeneously typed sequence of integer 2 and double 3.1.
func TestHeterogeneousSequence(t *testing.T) {
	req := &Request{
		Module: "m", Method: "f", Arity: 1, Location: "l",
		Calls: [][]xdm.Sequence{{{xdm.Integer(2), xdm.Double(3.1)}}},
	}
	msg := string(EncodeRequest(req))
	if !strings.Contains(msg, `xsi:type="xs:integer">2<`) {
		t.Errorf("missing integer encoding:\n%s", msg)
	}
	if !strings.Contains(msg, `xsi:type="xs:double">3.1<`) {
		t.Errorf("missing double encoding:\n%s", msg)
	}
	back, err := DecodeRequest([]byte(msg))
	if err != nil {
		t.Fatal(err)
	}
	seq := back.Calls[0][0]
	if _, ok := seq[0].(xdm.Integer); !ok {
		t.Errorf("item 0 = %T", seq[0])
	}
	if _, ok := seq[1].(xdm.Double); !ok {
		t.Errorf("item 1 = %T", seq[1])
	}
}

func TestNodeParameterRoundTrip(t *testing.T) {
	frag, err := xdm.ParseFragment(`<name>The Rock</name>`)
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{
		Module: "m", Method: "f", Arity: 1, Location: "l",
		Calls: [][]xdm.Sequence{{{frag[0], xdm.String("x")}}},
	}
	back, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	seq := back.Calls[0][0]
	n, ok := seq[0].(*xdm.Node)
	if !ok {
		t.Fatalf("item 0 = %T", seq[0])
	}
	if n.Name != "name" || n.StringValue() != "The Rock" {
		t.Errorf("node = %s", xdm.SerializeNode(n))
	}
	// call-by-value: fresh fragment, upward axes empty
	if n.Parent != nil {
		t.Error("decoded node must be a fresh fragment (no parent)")
	}
	if up := xdm.Step(n, xdm.AxisParent, xdm.NodeTest{KindTest: true, AnyKind: true}); len(up) != 0 {
		t.Error("parent axis on decoded node must be empty")
	}
}

// §2.2: navigating from a decoded node must never reach the SOAP
// envelope or other parameters.
func TestDecodedNodeCannotSeeEnvelope(t *testing.T) {
	frag, _ := xdm.ParseFragment(`<a/>`)
	frag2, _ := xdm.ParseFragment(`<b/>`)
	req := &Request{
		Module: "m", Method: "f", Arity: 2, Location: "l",
		Calls: [][]xdm.Sequence{{{frag[0]}, {frag2[0]}}},
	}
	back, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	a := back.Calls[0][0][0].(*xdm.Node)
	b := back.Calls[0][1][0].(*xdm.Node)
	if a.Root().Name == "Envelope" || a.Root() == b.Root() {
		t.Error("decoded parameters leak shared tree structure")
	}
	if a.TreeID() == b.TreeID() {
		t.Error("decoded parameters share tree identity")
	}
}

func TestAllNodeKindsRoundTrip(t *testing.T) {
	el, _ := xdm.ParseFragment(`<e a="1">t</e>`)
	doc, _ := xdm.ParseDocument("d.xml", `<root><x/></root>`)
	attr := xdm.NewAttribute("k", "v")
	attr.Seal()
	text := xdm.NewText("some text")
	text.Seal()
	comment := xdm.NewComment("a comment")
	comment.Seal()
	pi := xdm.NewPI("target", "data")
	pi.Seal()
	seq := xdm.Sequence{el[0], doc, attr, text, comment, pi}

	resp := &Response{Module: "m", Method: "f", Results: []xdm.Sequence{seq}}
	back, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	got := back.Results[0]
	if len(got) != 6 {
		t.Fatalf("items = %d, want 6", len(got))
	}
	kinds := []xdm.NodeKind{
		xdm.ElementNode, xdm.DocumentNode, xdm.AttributeNode,
		xdm.TextNode, xdm.CommentNode, xdm.PINode,
	}
	for i, k := range kinds {
		n, ok := got[i].(*xdm.Node)
		if !ok || n.Kind != k {
			t.Errorf("item %d: %v, want kind %v", i, got[i], k)
		}
	}
	if got[2].(*xdm.Node).Name != "k" || got[2].(*xdm.Node).Value != "v" {
		t.Errorf("attribute = %+v", got[2])
	}
	if got[5].(*xdm.Node).Name != "target" {
		t.Errorf("pi target = %q", got[5].(*xdm.Node).Name)
	}
}

func TestResponseRoundTripWithPeers(t *testing.T) {
	resp := &Response{
		Module: "films", Method: "filmsByActor",
		Results: []xdm.Sequence{
			{xdm.String("one")},
			{}, // empty result for the second call
			{xdm.Integer(42)},
		},
		Peers: []string{"xrpc://y.example.org", "xrpc://z.example.org"},
	}
	back, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 3 {
		t.Fatalf("results = %d", len(back.Results))
	}
	if len(back.Results[1]) != 0 {
		t.Errorf("empty sequence not preserved: %v", back.Results[1])
	}
	if len(back.Peers) != 2 || back.Peers[0] != "xrpc://y.example.org" {
		t.Errorf("peers = %v", back.Peers)
	}
}

func TestFaultMatchesPaperExample(t *testing.T) {
	// §2.1 "XRPC Error Message": module load failure.
	f := &Fault{Code: "env:Sender", Reason: "could not load module!"}
	msg := string(EncodeFault(f))
	for _, want := range []string{
		"<env:Fault>", "<env:Value>env:Sender</env:Value>",
		`<env:Text xml:lang="en">could not load module!</env:Text>`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("fault missing %q\n%s", want, msg)
		}
	}
	m, err := Decode([]byte(msg))
	if err != nil {
		t.Fatal(err)
	}
	if m.Fault == nil || m.Fault.Code != "env:Sender" || m.Fault.Reason != "could not load module!" {
		t.Fatalf("fault = %+v", m.Fault)
	}
	// DecodeResponse surfaces faults as errors
	if _, err := DecodeResponse([]byte(msg)); err == nil {
		t.Error("DecodeResponse should return fault as error")
	} else if _, ok := err.(*Fault); !ok {
		t.Errorf("error type = %T", err)
	}
}

func TestBulkRPCMatchesPaperSection32(t *testing.T) {
	// §3.2: the two-call bulk request for Q2.
	req := &Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
		Calls: [][]xdm.Sequence{
			{{xdm.String("Julie Andrews")}},
			{{xdm.String("Sean Connery")}},
		},
	}
	msg := string(EncodeRequest(req))
	if got := strings.Count(msg, "<xrpc:call>"); got != 2 {
		t.Errorf("bulk request has %d calls, want 2", got)
	}
	back, _ := DecodeRequest([]byte(msg))
	if len(back.Calls) != 2 {
		t.Fatalf("decoded %d calls", len(back.Calls))
	}
}

func TestEscaping(t *testing.T) {
	req := &Request{
		Module: "m", Method: "f", Arity: 1, Location: "l",
		Calls: [][]xdm.Sequence{{{xdm.String(`a<b>&"c`)}}},
	}
	back, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Calls[0][0][0].StringValue(); got != `a<b>&"c` {
		t.Errorf("escaped string = %q", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		``,
		`<not-soap/>`,
		`<env:Envelope xmlns:env="x"></env:Envelope>`,
		`<env:Envelope xmlns:env="x"><env:Body><xrpc:other/></env:Body></env:Envelope>`,
	}
	for _, msg := range bad {
		if _, err := Decode([]byte(msg)); err == nil {
			t.Errorf("%q: expected decode error", msg)
		}
	}
}

func TestArityMismatchRejected(t *testing.T) {
	msg := `<env:Envelope xmlns:env="e" xmlns:xrpc="x">
<env:Body><xrpc:request xrpc:module="m" xrpc:method="f" xrpc:arity="2" xrpc:location="l">
<xrpc:call><xrpc:sequence/></xrpc:call>
</xrpc:request></env:Body></env:Envelope>`
	if _, err := DecodeRequest([]byte(msg)); err == nil {
		t.Error("expected arity mismatch error")
	}
}

func TestForeignPrefixTolerated(t *testing.T) {
	// another implementation may pick different prefixes
	msg := `<?xml version="1.0"?>
<S:Envelope xmlns:S="http://www.w3.org/2003/05/soap-envelope" xmlns:x="http://monetdb.cwi.nl/XQuery">
<S:Body>
<x:request x:module="films" x:method="f" x:arity="1" x:location="loc">
<x:call><x:sequence><x:atomic-value xsi:type="xs:string" xmlns:xsi="i">v</x:atomic-value></x:sequence></x:call>
</x:request>
</S:Body>
</S:Envelope>`
	req, err := DecodeRequest([]byte(msg))
	if err != nil {
		t.Fatal(err)
	}
	if req.Module != "films" || len(req.Calls) != 1 {
		t.Fatalf("req = %+v", req)
	}
	if req.Calls[0][0][0].StringValue() != "v" {
		t.Errorf("param = %v", req.Calls[0][0])
	}
}

// Property: atomic sequences of any strings/ints survive the round trip.
func TestQuickAtomicRoundTrip(t *testing.T) {
	f := func(strs []string, ints []int64) bool {
		var seq xdm.Sequence
		for _, s := range strs {
			clean := strings.Map(func(r rune) rune {
				if r >= 0x20 && r < 0x7F {
					return r
				}
				return 'x'
			}, s)
			seq = append(seq, xdm.String(clean))
		}
		for _, i := range ints {
			seq = append(seq, xdm.Integer(i))
		}
		req := &Request{Module: "m", Method: "f", Arity: 1, Location: "l",
			Calls: [][]xdm.Sequence{{seq}}}
		back, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			return false
		}
		got := back.Calls[0][0]
		if len(got) != len(seq) {
			return false
		}
		for i := range seq {
			if got[i].StringValue() != seq[i].StringValue() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecodeMergesTextRunsInLinearTime is the regression test for the
// quadratic text merge: an element payload whose text is 400k
// alternating text and CDATA pieces decodes, buffered and streamed, into
// one text node within a generous bound (appending piece by piece took
// 0.9 s for 40k pieces).
func TestDecodeMergesTextRunsInLinearTime(t *testing.T) {
	const pieces = 400_000
	msg := []byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence><xrpc:element><a>` +
		strings.Repeat("x<![CDATA[y]]>", pieces/2) +
		`</a></xrpc:element></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`)
	want := strings.Repeat("xy", pieces/2)
	decoders := map[string]func([]byte) (*Response, error){
		"buffered": DecodeResponse,
		"stream":   func(b []byte) (*Response, error) { return DecodeResponseStream(bytes.NewReader(b)) },
	}
	for name, decode := range decoders {
		start := time.Now()
		resp, err := decode(msg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("%s: decoding %d text pieces took %v", name, pieces, took)
		}
		a := resp.Results[0][0].(*xdm.Node)
		if len(a.Children) != 1 || a.Children[0].Value != want {
			t.Fatalf("%s: run not merged into one text node: %d children", name, len(a.Children))
		}
	}
}
