package soap

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"xrpc/internal/xdm"
	"xrpc/internal/xmlscan"
)

// decode.go is the streaming envelope decoder: it drives the
// pull-tokenizer (xmlscan) through the XRPC envelope grammar and builds
// the Message directly — no DOM of the envelope is ever materialized.
// xdm trees are constructed only for actual node-typed parameters and
// results. The semantics are pinned to a DOM reference decoder over
// encoding/xml (DecodeDOM, in dom_test.go) by round-trip tests on every
// message fixture and a differential test on randomized messages.

// envelopeNames holds the names the XRPC envelope grammar uses with the
// prefixes our encoder emits, plus the common xsi:type values — the
// strings a well-formed message repeats per call. The scanner interns
// them without allocating.
var envelopeNames = map[string]string{}

func init() {
	for _, s := range []string{
		"env:Envelope", "env:Body", "env:Fault", "env:Code", "env:Value",
		"env:Reason", "env:Text",
		"xrpc:request", "xrpc:response", "xrpc:call", "xrpc:sequence",
		"xrpc:atomic-value", "xrpc:element", "xrpc:document",
		"xrpc:attribute", "xrpc:text", "xrpc:comment", "xrpc:pi",
		"xrpc:queryID", "xrpc:participatingPeers", "xrpc:peer",
		"xrpc:module", "xrpc:method", "xrpc:arity", "xrpc:location",
		"xrpc:updCall", "xrpc:seqNr", "xrpc:host", "xrpc:timestamp",
		"xrpc:timeout", "xrpc:nodeid", "xrpc:target",
		"xsi:type", "xsi:schemaLocation",
		"xmlns:xrpc", "xmlns:env", "xmlns:xs", "xmlns:xsi", "xml:lang",
		"uri", "en", "true", "false",
		"xs:string", "xs:integer", "xs:decimal", "xs:double",
		"xs:boolean", "xs:untypedAtomic",
		NSEnv, NSXRPC, NSXS, NSXSI, SchemaLoc,
	} {
		envelopeNames[s] = s
	}
}

// Decode parses a SOAP XRPC message of any kind.
func Decode(data []byte) (*Message, error) {
	d := &decoder{}
	d.sc.Reset(data, envelopeNames)
	return d.decodeMessage()
}

// DecodeRequest parses and requires a request message.
func DecodeRequest(data []byte) (*Request, error) {
	m, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if m.Request == nil {
		return nil, fmt.Errorf("soap: message is not a request")
	}
	return m.Request, nil
}

// DecodeResponse parses a response message, converting faults into *Fault
// errors.
func DecodeResponse(data []byte) (*Response, error) {
	m, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if m.Fault != nil {
		return nil, m.Fault
	}
	if m.Response == nil {
		return nil, fmt.Errorf("soap: message is not a response")
	}
	return m.Response, nil
}

type decoder struct {
	sc xmlscan.Scanner
	// arena slab-allocates the xdm nodes of decoded node-typed values:
	// one allocation per 64 nodes instead of one each.
	arena xdm.Arena
}

// attrLocalScan reads an attribute of the current start tag by local
// name, any prefix (the streaming counterpart of attrLocal).
func (d *decoder) attrLocalScan(local string) string {
	for _, a := range d.sc.Attrs {
		if localName(a.Name) == local {
			return a.Value
		}
	}
	return ""
}

// attrExactScan reads an attribute by its exact (prefixed) name — the
// DOM decoder matched xsi:type and uri exactly, so the streaming decoder
// does too.
func (d *decoder) attrExactScan(name string) (string, bool) {
	for _, a := range d.sc.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

func (d *decoder) decodeMessage() (*Message, error) {
	// locate the Envelope among the top-level elements
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		switch tok {
		case xmlscan.EOF:
			return nil, fmt.Errorf("soap: missing Envelope")
		case xmlscan.Start:
			if localName(d.sc.Name) == "Envelope" {
				msg, err := d.decodeEnvelope()
				if err != nil {
					return nil, err
				}
				// validate the remainder of the document (balance,
				// well-formed markup), as parsing the whole DOM did
				if err := d.drain(); err != nil {
					return nil, err
				}
				return msg, nil
			}
			if err := d.skipElement(); err != nil {
				return nil, err
			}
		default:
			// prolog text, comments, PIs (incl. the XML declaration)
		}
	}
}

// decodeEnvelope handles the children of env:Envelope: the first Body
// child carries the message.
func (d *decoder) decodeEnvelope() (*Message, error) {
	if d.sc.SelfClose {
		return nil, fmt.Errorf("soap: missing Body")
	}
	target := d.sc.Depth - 1
	var msg *Message
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		switch tok {
		case xmlscan.Start:
			if msg == nil && localName(d.sc.Name) == "Body" {
				if msg, err = d.decodeBody(); err != nil {
					return nil, err
				}
				continue
			}
			if err := d.skipElement(); err != nil {
				return nil, err
			}
		case xmlscan.End:
			if d.sc.Depth == target {
				if msg == nil {
					return nil, fmt.Errorf("soap: missing Body")
				}
				return msg, nil
			}
		}
	}
}

// decodeBody scans the Body's children. Mirroring the DOM decoder's
// lookup order, a Fault wins over a request, which wins over a response,
// regardless of document order; the first child of each kind counts.
func (d *decoder) decodeBody() (*Message, error) {
	var (
		req   *Request
		resp  *Response
		fault *Fault
	)
	if !d.sc.SelfClose {
		target := d.sc.Depth - 1
		for {
			tok, err := d.sc.Next()
			if err != nil {
				return nil, err
			}
			if tok == xmlscan.End {
				if d.sc.Depth == target {
					break
				}
				continue
			}
			if tok != xmlscan.Start {
				continue
			}
			switch local := localName(d.sc.Name); {
			case local == "Fault" && fault == nil:
				if fault, err = d.decodeFault(); err != nil {
					return nil, err
				}
			case local == "request" && req == nil:
				if req, err = d.decodeRequest(); err != nil {
					return nil, err
				}
			case local == "response" && resp == nil:
				if resp, err = d.decodeResponse(); err != nil {
					return nil, err
				}
			default:
				if err := d.skipElement(); err != nil {
					return nil, err
				}
			}
		}
	}
	switch {
	case fault != nil:
		return &Message{Fault: fault}, nil
	case req != nil:
		return &Message{Request: req}, nil
	case resp != nil:
		return &Message{Response: resp}, nil
	}
	return nil, fmt.Errorf("soap: body contains no request, response or fault")
}

func (d *decoder) decodeRequest() (*Request, error) {
	req := &Request{
		Module:   d.attrLocalScan("module"),
		Method:   d.attrLocalScan("method"),
		Location: d.attrLocalScan("location"),
		Updating: d.attrLocalScan("updCall") == "true",
		TraceID:  d.attrLocalScan("traceID"),
	}
	scanIntInto(d.attrLocalScan("arity"), &req.Arity)
	if d.sc.SelfClose {
		return req, nil
	}
	target := d.sc.Depth - 1
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		switch tok {
		case xmlscan.End:
			if d.sc.Depth == target {
				if req.SeqNrs != nil {
					for len(req.SeqNrs) < len(req.Calls) {
						req.SeqNrs = append(req.SeqNrs, int64(len(req.SeqNrs)))
					}
				}
				return req, nil
			}
		case xmlscan.Start:
			switch localName(d.sc.Name) {
			case "queryID":
				if req.QueryID != nil {
					if err := d.skipElement(); err != nil {
						return nil, err
					}
					continue
				}
				qid := &QueryID{Host: d.attrLocalScan("host")}
				if ts, err := time.Parse(time.RFC3339Nano, d.attrLocalScan("timestamp")); err == nil {
					qid.Timestamp = ts
				}
				scanIntInto(d.attrLocalScan("timeout"), &qid.Timeout)
				if qid.ID, err = d.elementText(); err != nil {
					return nil, err
				}
				req.QueryID = qid
			case "call":
				if err := d.decodeCall(req); err != nil {
					return nil, err
				}
			default:
				if err := d.skipElement(); err != nil {
					return nil, err
				}
			}
		}
	}
}

// decodeCall decodes one <xrpc:call> element and appends it to req.
func (d *decoder) decodeCall(req *Request) error {
	seqNr := d.attrLocalScan("seqNr")
	var params []xdm.Sequence
	if !d.sc.SelfClose {
		target := d.sc.Depth - 1
		for {
			tok, err := d.sc.Next()
			if err != nil {
				return err
			}
			if tok == xmlscan.End {
				if d.sc.Depth == target {
					break
				}
				continue
			}
			if tok != xmlscan.Start {
				continue
			}
			if localName(d.sc.Name) != "sequence" {
				if err := d.skipElement(); err != nil {
					return err
				}
				continue
			}
			seq, err := d.decodeSequence()
			if err != nil {
				return err
			}
			params = append(params, seq)
		}
	}
	if req.Arity > 0 && len(params) != req.Arity {
		return fmt.Errorf("soap: call has %d parameters, arity is %d", len(params), req.Arity)
	}
	if err := ResolveNodeRefs(params); err != nil {
		return err
	}
	if seqNr != "" {
		var v int64
		scanInt64Into(seqNr, &v)
		// pad earlier untagged calls with their index
		for len(req.SeqNrs) < len(req.Calls) {
			req.SeqNrs = append(req.SeqNrs, int64(len(req.SeqNrs)))
		}
		req.SeqNrs = append(req.SeqNrs, v)
	}
	req.Calls = append(req.Calls, params)
	return nil
}

// decodeSequence is the streaming n2s (§2.2): it converts one
// <xrpc:sequence> element into an XDM sequence with the same
// call-by-value guarantees as the DOM DecodeSequence — node items come
// out as fresh sealed fragments that cannot see the envelope.
func (d *decoder) decodeSequence() (xdm.Sequence, error) {
	var out xdm.Sequence
	if d.sc.SelfClose {
		return out, nil
	}
	target := d.sc.Depth - 1
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == target {
				return out, nil
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		if out, err = d.decodeSequenceItem(out); err != nil {
			return nil, err
		}
	}
}

// decodeSequenceItem consumes the sequence-item element at the current
// start token and appends the item(s) it denotes to out. One wrapper
// may contribute zero items (an empty <xrpc:element/>) or several (an
// <xrpc:attribute> with multiple attributes), which is why the decoded
// items are appended rather than returned singly. Shared by the
// buffered decoder (decodeSequence) and the incremental ResponseStream.
func (d *decoder) decodeSequenceItem(out xdm.Sequence) (xdm.Sequence, error) {
	switch localName(d.sc.Name) {
	case "atomic-value":
		typ, _ := d.attrExactScan("xsi:type")
		if typ == "" {
			typ = "xs:untypedAtomic"
		}
		sv, err := d.elementText()
		if err != nil {
			return nil, err
		}
		item, err := xdm.CastAtomic(xdm.String(sv), typ)
		if err != nil {
			return nil, fmt.Errorf("soap: bad atomic value %q as %s: %w", sv, typ, err)
		}
		out = append(out, item)
	case "element":
		ref := d.attrLocalScan("nodeid")
		elems, err := d.childElements()
		if err != nil {
			return nil, err
		}
		if ref != "" && len(elems) == 0 {
			// call-by-fragment placeholder, resolved after all
			// parameters of the call are decoded
			ph := d.arena.Element(nodeRefPlaceholder)
			ph.Value = ref
			out = append(out, ph)
			return out, nil
		}
		for _, el := range elems {
			out = append(out, el)
		}
	case "document":
		doc, err := d.buildDocument()
		if err != nil {
			return nil, err
		}
		out = append(out, doc)
	case "attribute":
		for _, a := range d.sc.Attrs {
			attr := d.arena.Attribute(a.Name, a.Value)
			attr.Seal()
			out = append(out, attr)
		}
		if err := d.skipElement(); err != nil {
			return nil, err
		}
	case "text":
		sv, err := d.elementText()
		if err != nil {
			return nil, err
		}
		t := d.arena.Text(sv)
		t.Seal()
		out = append(out, t)
	case "comment":
		sv, err := d.elementText()
		if err != nil {
			return nil, err
		}
		c := d.arena.Comment(sv)
		c.Seal()
		out = append(out, c)
	case "pi":
		pitarget := d.attrLocalScan("target")
		sv, err := d.elementText()
		if err != nil {
			return nil, err
		}
		pi := d.arena.PI(pitarget, sv)
		pi.Seal()
		out = append(out, pi)
	default:
		return nil, fmt.Errorf("soap: unknown sequence item element %q", d.sc.Name)
	}
	return out, nil
}

func (d *decoder) decodeResponse() (*Response, error) {
	resp := &Response{
		Module: d.attrLocalScan("module"),
		Method: d.attrLocalScan("method"),
	}
	if d.sc.SelfClose {
		return resp, nil
	}
	target := d.sc.Depth - 1
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == target {
				return resp, nil
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		switch localName(d.sc.Name) {
		case "sequence":
			seq, err := d.decodeSequence()
			if err != nil {
				return nil, err
			}
			resp.Results = append(resp.Results, seq)
		case "participatingPeers":
			if resp.Peers, err = d.decodePeers(resp.Peers); err != nil {
				return nil, err
			}
		default:
			if err := d.skipElement(); err != nil {
				return nil, err
			}
		}
	}
}

// decodePeers consumes an <xrpc:participatingPeers> element whose start
// tag is current, appending each peer child's uri attribute.
func (d *decoder) decodePeers(peers []string) ([]string, error) {
	if d.sc.SelfClose {
		return peers, nil
	}
	target := d.sc.Depth - 1
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == target {
				return peers, nil
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		if uri, ok := d.attrExactScan("uri"); ok {
			peers = append(peers, uri)
		}
		if err := d.skipElement(); err != nil {
			return nil, err
		}
	}
}

func (d *decoder) decodeFault() (*Fault, error) {
	fault := &Fault{Code: "env:Receiver"}
	if d.sc.SelfClose {
		return fault, nil
	}
	target := d.sc.Depth - 1
	seenCode, seenReason := false, false
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == target {
				return fault, nil
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		switch local := localName(d.sc.Name); {
		case local == "Code" && !seenCode:
			seenCode = true
			if d.sc.SelfClose {
				continue
			}
			ctarget := d.sc.Depth - 1
			seenValue := false
			for {
				tok, err := d.sc.Next()
				if err != nil {
					return nil, err
				}
				if tok == xmlscan.End {
					if d.sc.Depth == ctarget {
						break
					}
					continue
				}
				if tok != xmlscan.Start {
					continue
				}
				if localName(d.sc.Name) == "Value" && !seenValue {
					seenValue = true
					sv, err := d.elementText()
					if err != nil {
						return nil, err
					}
					fault.Code = strings.TrimSpace(sv)
					continue
				}
				if err := d.skipElement(); err != nil {
					return nil, err
				}
			}
		case local == "Reason" && !seenReason:
			seenReason = true
			sv, err := d.elementText()
			if err != nil {
				return nil, err
			}
			fault.Reason = strings.TrimSpace(sv)
		default:
			if err := d.skipElement(); err != nil {
				return nil, err
			}
		}
	}
}

// ------------------------------------------------------------ tree build

// childElements builds the element children of the current element as
// fresh sealed trees (text and other non-element content between them is
// dropped, as the DOM decoder's ChildElements did).
func (d *decoder) childElements() ([]*xdm.Node, error) {
	if d.sc.SelfClose {
		return nil, nil
	}
	target := d.sc.Depth - 1
	var out []*xdm.Node
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		switch tok {
		case xmlscan.End:
			if d.sc.Depth == target {
				return out, nil
			}
		case xmlscan.Start:
			n, err := d.buildElement()
			if err != nil {
				return nil, err
			}
			n.Seal()
			out = append(out, n)
		}
	}
}

// buildDocument rebuilds an <xrpc:document> wrapper's content as a fresh
// document node: all children (elements, text, comments, PIs) are kept,
// matching the DOM decoder's clone of v.Children.
func (d *decoder) buildDocument() (*xdm.Node, error) {
	doc := d.arena.Document("")
	if d.sc.SelfClose {
		doc.Seal()
		return doc, nil
	}
	target := d.sc.Depth - 1
	if err := d.buildChildren(doc, target); err != nil {
		return nil, err
	}
	doc.Seal()
	return doc, nil
}

// buildElement builds the element at the current start token (with its
// whole subtree) into a fresh, unsealed tree.
func (d *decoder) buildElement() (*xdm.Node, error) {
	el := d.arena.Element(d.sc.Name)
	for _, a := range d.sc.Attrs {
		el.SetAttr(d.arena.Attribute(a.Name, a.Value))
	}
	if d.sc.SelfClose {
		return el, nil
	}
	if err := d.buildChildren(el, d.sc.Depth-1); err != nil {
		return nil, err
	}
	return el, nil
}

// buildChildren appends the token stream to parent until the scanner
// depth returns to target. Iterative (explicit stack), so arbitrarily
// deep documents cannot overflow the Go stack.
func (d *decoder) buildChildren(parent *xdm.Node, target int) error {
	cur := parent
	var stack []*xdm.Node
	// adjacent text tokens (CDATA boundaries) merge into one text node,
	// like the reference parser; a run that is empty (empty CDATA
	// sections) makes none, as the encoder cannot write an empty text
	// node and a decoded message must re-encode to itself
	var text xmlscan.TextRun
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return err
		}
		if tok == xmlscan.Text {
			v, err := d.sc.TextValue()
			if err != nil {
				return err
			}
			text.Add(v)
			continue
		}
		if tok == xmlscan.PI && d.sc.Name == "xml" {
			continue // XML declaration
		}
		if v := text.Take(); v != "" {
			cur.AppendChild(d.arena.Text(v))
		}
		switch tok {
		case xmlscan.Start:
			child := d.arena.Element(d.sc.Name)
			for _, a := range d.sc.Attrs {
				child.SetAttr(d.arena.Attribute(a.Name, a.Value))
			}
			cur.AppendChild(child)
			if !d.sc.SelfClose {
				stack = append(stack, cur)
				cur = child
			}
		case xmlscan.End:
			if d.sc.Depth == target {
				return nil
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case xmlscan.Comment:
			v, err := d.sc.TextValue()
			if err != nil {
				return err
			}
			cur.AppendChild(d.arena.Comment(v))
		case xmlscan.PI:
			v, err := d.sc.TextValue()
			if err != nil {
				return err
			}
			cur.AppendChild(d.arena.PI(d.sc.Name, v))
		}
	}
}

// ------------------------------------------------------------- traversal

// skipElement consumes the rest of the element whose start tag is the
// current token, ignoring all content.
func (d *decoder) skipElement() error {
	if d.sc.SelfClose {
		return nil
	}
	target := d.sc.Depth - 1
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return err
		}
		if tok == xmlscan.End && d.sc.Depth == target {
			return nil
		}
	}
}

// elementText consumes the rest of the current element and returns the
// concatenation of all descendant text — fn:string of the element, the
// value the DOM decoder read via StringValue.
func (d *decoder) elementText() (string, error) {
	if d.sc.SelfClose {
		return "", nil
	}
	target := d.sc.Depth - 1
	first := ""
	var buf []byte
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return "", err
		}
		switch tok {
		case xmlscan.End:
			if d.sc.Depth == target {
				if buf != nil {
					return string(buf), nil
				}
				return first, nil
			}
		case xmlscan.Text:
			v, err := d.sc.TextValue()
			if err != nil {
				return "", err
			}
			switch {
			case buf != nil:
				buf = append(buf, v...)
			case first == "":
				first = v
			default:
				buf = append(append(buf, first...), v...)
			}
		}
	}
}

// drain validates the remainder of the input: balanced tags and
// well-formed markup, matching the whole-document parse the DOM decoder
// performed.
func (d *decoder) drain() error {
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return err
		}
		if tok == xmlscan.EOF {
			return nil
		}
	}
}

// ------------------------------------------------------------ number scan

// scanIntInto parses a leading integer the way fmt.Sscanf("%d") did:
// optional whitespace, sign and digits, trailing junk ignored, no digits
// leaves dst unchanged.
func scanIntInto(s string, dst *int) {
	var v int64
	if scanLeadingInt(s, &v) {
		*dst = int(v)
	}
}

func scanInt64Into(s string, dst *int64) {
	var v int64
	if scanLeadingInt(s, &v) {
		*dst = v
	}
}

func scanLeadingInt(s string, dst *int64) bool {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	start := i
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == digits {
		return false
	}
	v, err := strconv.ParseInt(s[start:i], 10, 64)
	if err != nil {
		return false
	}
	*dst = v
	return true
}
