package soap

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"time"

	"xrpc/internal/xdm"
)

// dom_test.go is the reference decoder the streaming decoder is pinned
// to: the seed's DOM decoder, which parses the whole envelope into an
// xdm tree and walks it. Its tree builder runs on encoding/xml, not on
// xdm.ParseDocument, so the oracle shares no code with the tokenizer
// under test.

// DecodeDOM parses a SOAP XRPC message of any kind by materializing the
// whole envelope as an xdm.Node tree and walking it — the seed's
// decoder, kept as the executable reference the streaming pull-decoder
// (decode.go) is differentially tested against.
func DecodeDOM(data []byte) (*Message, error) {
	doc, err := parseDOM(string(data))
	if err != nil {
		return nil, fmt.Errorf("soap: malformed envelope: %w", err)
	}
	env := firstChildLocal(doc, "Envelope")
	if env == nil {
		return nil, fmt.Errorf("soap: missing Envelope")
	}
	body := firstChildLocal(env, "Body")
	if body == nil {
		return nil, fmt.Errorf("soap: missing Body")
	}
	if f := firstChildLocal(body, "Fault"); f != nil {
		return &Message{Fault: decodeFaultDOM(f)}, nil
	}
	if rq := firstChildLocal(body, "request"); rq != nil {
		req, err := decodeRequestDOM(rq)
		if err != nil {
			return nil, err
		}
		return &Message{Request: req}, nil
	}
	if rs := firstChildLocal(body, "response"); rs != nil {
		resp, err := decodeResponseDOM(rs)
		if err != nil {
			return nil, err
		}
		return &Message{Response: resp}, nil
	}
	return nil, fmt.Errorf("soap: body contains no request, response or fault")
}

func decodeRequestDOM(rq *xdm.Node) (*Request, error) {
	req := &Request{
		Module:   attrLocal(rq, "module"),
		Method:   attrLocal(rq, "method"),
		Location: attrLocal(rq, "location"),
		Updating: attrLocal(rq, "updCall") == "true",
		TraceID:  attrLocal(rq, "traceID"),
	}
	fmt.Sscanf(attrLocal(rq, "arity"), "%d", &req.Arity)
	if q := firstChildLocal(rq, "queryID"); q != nil {
		qid := &QueryID{
			ID:   q.StringValue(),
			Host: attrLocal(q, "host"),
		}
		if ts, err := time.Parse(time.RFC3339Nano, attrLocal(q, "timestamp")); err == nil {
			qid.Timestamp = ts
		}
		fmt.Sscanf(attrLocal(q, "timeout"), "%d", &qid.Timeout)
		req.QueryID = qid
	}
	for _, c := range rq.ChildElements() {
		if localName(c.Name) != "call" {
			continue
		}
		var params []xdm.Sequence
		for _, s := range c.ChildElements() {
			if localName(s.Name) != "sequence" {
				continue
			}
			seq, err := DecodeSequence(s)
			if err != nil {
				return nil, err
			}
			params = append(params, seq)
		}
		if req.Arity > 0 && len(params) != req.Arity {
			return nil, fmt.Errorf("soap: call has %d parameters, arity is %d", len(params), req.Arity)
		}
		if err := ResolveNodeRefs(params); err != nil {
			return nil, err
		}
		if sn := attrLocal(c, "seqNr"); sn != "" {
			var v int64
			fmt.Sscanf(sn, "%d", &v)
			// pad earlier untagged calls with their index
			for len(req.SeqNrs) < len(req.Calls) {
				req.SeqNrs = append(req.SeqNrs, int64(len(req.SeqNrs)))
			}
			req.SeqNrs = append(req.SeqNrs, v)
		}
		req.Calls = append(req.Calls, params)
	}
	if req.SeqNrs != nil {
		for len(req.SeqNrs) < len(req.Calls) {
			req.SeqNrs = append(req.SeqNrs, int64(len(req.SeqNrs)))
		}
	}
	return req, nil
}

func decodeResponseDOM(rs *xdm.Node) (*Response, error) {
	resp := &Response{
		Module: attrLocal(rs, "module"),
		Method: attrLocal(rs, "method"),
	}
	for _, c := range rs.ChildElements() {
		switch localName(c.Name) {
		case "sequence":
			seq, err := DecodeSequence(c)
			if err != nil {
				return nil, err
			}
			resp.Results = append(resp.Results, seq)
		case "participatingPeers":
			for _, p := range c.ChildElements() {
				if uri, ok := p.Attr("uri"); ok {
					resp.Peers = append(resp.Peers, uri)
				}
			}
		}
	}
	return resp, nil
}

func decodeFaultDOM(f *xdm.Node) *Fault {
	fault := &Fault{Code: "env:Receiver"}
	if code := firstChildLocal(f, "Code"); code != nil {
		if v := firstChildLocal(code, "Value"); v != nil {
			fault.Code = strings.TrimSpace(v.StringValue())
		}
	}
	if reason := firstChildLocal(f, "Reason"); reason != nil {
		fault.Reason = strings.TrimSpace(reason.StringValue())
	}
	return fault
}

// firstChildLocal finds the first child element with the given local
// name, tolerating any namespace prefix (interoperability: other
// implementations may choose different prefixes).
func firstChildLocal(n *xdm.Node, local string) *xdm.Node {
	for _, c := range n.ChildElements() {
		if localName(c.Name) == local {
			return c
		}
	}
	return nil
}

// parseDOM builds the envelope tree from encoding/xml's raw tokens —
// the document builder xdm.ParseDocument used before the repository had
// its own tokenizer.
func parseDOM(text string) (*xdm.Node, error) {
	doc := xdm.NewDocument("soap-message")
	dec := xml.NewDecoder(strings.NewReader(text))
	var stack []*xdm.Node
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
			el := xdm.NewElement(domName(t.Name))
			for _, a := range t.Attr {
				el.SetAttr(xdm.NewAttribute(domName(a.Name), a.Value))
			}
			cur.AppendChild(el)
			stack = append(stack, cur)
			cur = el
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xml parse: unbalanced end tag </%s>", domName(t.Name))
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if cur == doc && strings.TrimSpace(s) == "" {
				continue // ignore whitespace outside the root
			}
			if n := len(cur.Children); n > 0 && cur.Children[n-1].Kind == xdm.TextNode {
				cur.Children[n-1].Value += s
				continue
			}
			cur.AppendChild(xdm.NewText(s))
		case xml.Comment:
			cur.AppendChild(xdm.NewComment(string(t)))
		case xml.ProcInst:
			if t.Target == "xml" {
				continue // XML declaration
			}
			cur.AppendChild(xdm.NewPI(t.Target, string(t.Inst)))
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xml parse: %d unclosed element(s)", len(stack))
	}
	doc.Seal()
	return doc, nil
}

func domName(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}
