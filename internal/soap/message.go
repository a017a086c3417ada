// Package soap implements the SOAP XRPC message format of §2.1 of the
// paper: request/response envelopes, the s2n/n2s parameter marshaling
// sub-format (document/literal style, distinct from SOAP RPC's
// rpc/encoded), Bulk RPC (multiple <xrpc:call> elements per request,
// §3.2), the queryID isolation extension (§2.2), the participating-peers
// piggyback used by distributed commit (§2.3), and SOAP Fault errors.
//
// The wire path is streaming and allocation-lean: encoding goes through
// the pooled Encoder (encoder.go), decoding through the repository's
// pull-tokenizer (internal/xmlscan) driven by the XRPC envelope grammar
// (decode.go). The seed's builder encoder survives as an executable
// reference (refenc.go), and its DOM decoder, over encoding/xml, as a
// test oracle (dom_test.go); differential tests pin the streaming paths
// against both.
package soap

import (
	"fmt"
	"strings"
	"time"

	"xrpc/internal/xdm"
)

// Namespace URIs used in XRPC envelopes.
const (
	NSEnv  = "http://www.w3.org/2003/05/soap-envelope"
	NSXRPC = "http://monetdb.cwi.nl/XQuery"
	NSXS   = "http://www.w3.org/2001/XMLSchema"
	NSXSI  = "http://www.w3.org/2001/XMLSchema-instance"
	// SchemaLoc is the xsi:schemaLocation advertised in envelopes.
	SchemaLoc = "http://monetdb.cwi.nl/XQuery http://monetdb.cwi.nl/XQuery/XRPC.xsd"
)

// QueryID identifies the query a request belongs to, for repeatable-read
// isolation (§2.2 "SOAP XRPC Extension: Isolation"). Host and Timestamp
// say where and when the query started; Timeout is the number of seconds
// the isolated database state must be conserved (relative, to tolerate
// clock skew between peers).
type QueryID struct {
	ID        string
	Host      string
	Timestamp time.Time
	Timeout   int
}

// Request is one SOAP XRPC request: possibly many calls (Bulk RPC) of
// the same function.
type Request struct {
	Module   string // module namespace URI
	Method   string // function local name
	Arity    int
	Location string // at-hint location of the module
	Updating bool   // calls an XQUF updating function
	QueryID  *QueryID
	// TraceID correlates one client request across every shard it
	// scatters to: minted at the front door (proxy or standalone
	// server), carried on the envelope as xrpc:traceID next to the
	// queryID, surfaced in each peer's slow-query log. Empty means
	// untraced — the attribute is omitted, keeping old peers
	// byte-compatible.
	TraceID string
	// Calls holds the actual parameters: Calls[i][j] is parameter j of
	// call i. len(Calls[i]) == Arity for every i.
	Calls [][]xdm.Sequence
	// ByFragment enables the call-by-fragment protocol extension
	// (paper footnote 4): node parameters that are descendants of other
	// node parameters travel as xrpc:nodeid references, preserving
	// ancestor/descendant relationships at the remote peer and
	// compressing the message.
	ByFragment bool
	// SeqNrs optionally tags each call with its original query position
	// (the deterministic-update-order extension of [35]); len must equal
	// len(Calls) when non-nil. Bulk RPC executes calls out of query
	// order, but pending updates tagged this way apply in query order.
	SeqNrs []int64
}

// Response is a SOAP XRPC response: one result sequence per call, plus
// the piggybacked list of peers that participated in handling the
// request tree (used by the WS-Coordination registration, §2.3).
type Response struct {
	Module  string
	Method  string
	Results []xdm.Sequence
	Peers   []string
	// Raw optionally carries pre-serialized result sequences: when
	// Raw[i] is non-nil it is spliced into the envelope verbatim in
	// place of Results[i] (it must be exactly the bytes the encoder
	// would produce for that sequence: "<xrpc:sequence>…</xrpc:sequence>\n").
	// The per-shard response cache stores results in this form so a
	// warm hit skips both execution and re-serialization.
	Raw [][]byte
}

// Fault is a SOAP Fault message; it doubles as the Go error type for
// remote failures ("any error will cause a run-time error at the site
// that originated the query").
type Fault struct {
	Code   string // "env:Sender" or "env:Receiver"
	Reason string
}

// Error implements error.
func (f *Fault) Error() string { return "xrpc fault (" + f.Code + "): " + f.Reason }

// SequenceToNode is s2n producing an XDM tree directly (no text
// round-trip): a fresh <xrpc:sequence> element whose children wrap each
// item per the XRPC schema. Node items are deep-copied (call-by-value).
func SequenceToNode(seq xdm.Sequence) *xdm.Node {
	root := xdm.NewElement("xrpc:sequence")
	for _, it := range seq {
		switch v := it.(type) {
		case *xdm.Node:
			switch v.Kind {
			case xdm.ElementNode:
				wrap := xdm.NewElement("xrpc:element")
				wrap.AppendChild(v.Clone())
				root.AppendChild(wrap)
			case xdm.DocumentNode:
				wrap := xdm.NewElement("xrpc:document")
				for _, c := range v.Children {
					wrap.AppendChild(c.Clone())
				}
				root.AppendChild(wrap)
			case xdm.AttributeNode:
				wrap := xdm.NewElement("xrpc:attribute")
				wrap.SetAttr(xdm.NewAttribute(v.Name, v.Value))
				root.AppendChild(wrap)
			case xdm.TextNode:
				wrap := xdm.NewElement("xrpc:text")
				wrap.AppendChild(xdm.NewText(v.Value))
				root.AppendChild(wrap)
			case xdm.CommentNode:
				wrap := xdm.NewElement("xrpc:comment")
				wrap.AppendChild(xdm.NewText(v.Value))
				root.AppendChild(wrap)
			case xdm.PINode:
				wrap := xdm.NewElement("xrpc:pi")
				wrap.SetAttr(xdm.NewAttribute("xrpc:target", v.Name))
				wrap.AppendChild(xdm.NewText(v.Value))
				root.AppendChild(wrap)
			}
		default:
			wrap := xdm.NewElement("xrpc:atomic-value")
			wrap.SetAttr(xdm.NewAttribute("xsi:type", it.TypeName()))
			if s := it.StringValue(); s != "" {
				wrap.AppendChild(xdm.NewText(s))
			}
			root.AppendChild(wrap)
		}
	}
	root.Seal()
	return root
}

// Message is the decoded form of any XRPC envelope body.
type Message struct {
	Request  *Request
	Response *Response
	Fault    *Fault
}

// DecodeSequence is n2s (§2.2): converts an <xrpc:sequence> element back
// into an XDM sequence. Node-typed values come out as fresh XML
// fragments: navigating upwards or sideways from them yields empty
// results, which is exactly the call-by-value guarantee the formal
// semantics requires (a decoded node must never expose the SOAP envelope
// or sibling parameters). The §4 wrapper uses it on constructed
// (never-serialized) response trees, and the DOM reference decoder of
// the tests on parsed envelopes.
func DecodeSequence(seqEl *xdm.Node) (xdm.Sequence, error) {
	var out xdm.Sequence
	for _, v := range seqEl.ChildElements() {
		switch localName(v.Name) {
		case "atomic-value":
			typ, _ := v.Attr("xsi:type")
			if typ == "" {
				typ = "xs:untypedAtomic"
			}
			item, err := xdm.CastAtomic(xdm.String(v.StringValue()), typ)
			if err != nil {
				return nil, fmt.Errorf("soap: bad atomic value %q as %s: %w", v.StringValue(), typ, err)
			}
			out = append(out, item)
		case "element":
			if ref := attrLocal(v, "nodeid"); ref != "" && len(v.ChildElements()) == 0 {
				// call-by-fragment placeholder, resolved after all
				// parameters of the call are decoded
				ph := xdm.NewElement(nodeRefPlaceholder)
				ph.Value = ref
				out = append(out, ph)
				continue
			}
			for _, c := range v.ChildElements() {
				fresh := c.Clone()
				out = append(out, fresh)
			}
		case "document":
			doc := xdm.NewDocument("")
			for _, c := range v.Children {
				doc.AppendChild(c.Clone())
			}
			doc.Seal()
			out = append(out, doc)
		case "attribute":
			for _, a := range v.Attrs {
				attr := xdm.NewAttribute(a.Name, a.Value)
				attr.Seal()
				out = append(out, attr)
			}
		case "text":
			t := xdm.NewText(v.StringValue())
			t.Seal()
			out = append(out, t)
		case "comment":
			c := xdm.NewComment(v.StringValue())
			c.Seal()
			out = append(out, c)
		case "pi":
			target := attrLocal(v, "target")
			pi := xdm.NewPI(target, v.StringValue())
			pi.Seal()
			out = append(out, pi)
		default:
			return nil, fmt.Errorf("soap: unknown sequence item element %q", v.Name)
		}
	}
	return out, nil
}

// localName strips any namespace prefix.
func localName(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// attrLocal reads an attribute by local name regardless of prefix.
func attrLocal(n *xdm.Node, local string) string {
	for _, a := range n.Attrs {
		if localName(a.Name) == local {
			return a.Value
		}
	}
	return ""
}
