package soap

import (
	"fmt"
	"io"

	"xrpc/internal/xdm"
	"xrpc/internal/xmlscan"
)

// stream.go is the incremental face of the decoder: the same grammar
// walk as decode.go, but fed from an io.Reader, so envelopes decode as
// bytes arrive off the socket. DecodeStream is the drop-in streaming
// counterpart of Decode (whole message in, whole Message out, bounded
// only by message size), while ResponseStream exposes a response one
// result sequence — and within it one item — at a time, so a consumer
// can forward results while the producer is still writing them. Memory
// then scales with the largest single item plus the scanner's refill
// window, not with the response.

// DecodeStream parses a SOAP XRPC message of any kind from r,
// decoding incrementally as bytes arrive. It accepts and produces
// exactly what Decode does.
func DecodeStream(r io.Reader) (*Message, error) {
	d := &decoder{}
	d.sc.ResetReader(r, envelopeNames)
	return d.decodeMessage()
}

// DecodeResponseStream parses a response message from r, converting
// faults into *Fault errors. For item-at-a-time consumption use
// NewResponseStream instead.
func DecodeResponseStream(r io.Reader) (*Response, error) {
	m, err := DecodeStream(r)
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

// ResponseStream reads a response envelope incrementally:
//
//	rs, err := NewResponseStream(r)      // header; faults surface here
//	for {
//		ok, err := rs.NextSequence()     // one per call result
//		if !ok { break }
//		for {
//			it, err := rs.NextItem()     // nil item = end of sequence
//			if it == nil { break }
//		}
//	}
//	peers, err := rs.Finish()            // drain + validate the rest
//
// NextSequence discards any unread items of the current sequence, and
// Finish drains whatever was not consumed, so partial reads are always
// safe. The one divergence from the buffered decoder: Decode scans the
// whole Body before picking a winner, so a Fault placed *after* the
// response element still takes precedence up front — here it surfaces
// at Finish instead (our encoder only ever emits one Body child, so
// this matters only for foreign envelopes).
type ResponseStream struct {
	d      decoder
	module string
	method string
	peers  []string

	// end-tag depth targets for the open elements
	envTgt  int
	bodyTgt int
	respTgt int
	seqTgt  int

	inSeq    bool // a sequence is open for NextItem
	seqEnd   bool // ...but was self-closed (no tokens left to read)
	done     bool // the response element is fully consumed
	finished bool // Finish completed

	// queue holds decoded items not yet delivered: one wrapper element
	// can denote several items (<xrpc:attribute> with multiple
	// attributes) or none (an empty <xrpc:element/>).
	queue xdm.Sequence
	qi    int
}

// NewResponseStream reads the envelope header from r up to the
// response element. A Fault message is returned as a *Fault error; a
// request makes it a not-a-response error.
func NewResponseStream(r io.Reader) (*ResponseStream, error) {
	rs := &ResponseStream{}
	rs.d.sc.ResetReader(r, envelopeNames)
	if err := rs.header(); err != nil {
		return nil, err
	}
	return rs, nil
}

// Module returns the xrpc:module attribute of the response.
func (rs *ResponseStream) Module() string { return rs.module }

// Method returns the xrpc:method attribute of the response.
func (rs *ResponseStream) Method() string { return rs.method }

func (rs *ResponseStream) header() error {
	d := &rs.d
	// locate the Envelope among the top-level elements (decodeMessage)
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return err
		}
		if tok == xmlscan.EOF {
			return fmt.Errorf("soap: missing Envelope")
		}
		if tok != xmlscan.Start {
			continue
		}
		if localName(d.sc.Name) == "Envelope" {
			break
		}
		if err := d.skipElement(); err != nil {
			return err
		}
	}
	if d.sc.SelfClose {
		return fmt.Errorf("soap: missing Body")
	}
	rs.envTgt = d.sc.Depth - 1
	// first Body child (decodeEnvelope)
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == rs.envTgt {
				return fmt.Errorf("soap: missing Body")
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		if localName(d.sc.Name) == "Body" {
			break
		}
		if err := d.skipElement(); err != nil {
			return err
		}
	}
	if d.sc.SelfClose {
		return fmt.Errorf("soap: body contains no request, response or fault")
	}
	rs.bodyTgt = d.sc.Depth - 1
	// first meaningful Body child (decodeBody, taken in document order)
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == rs.bodyTgt {
				return fmt.Errorf("soap: body contains no request, response or fault")
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		switch localName(d.sc.Name) {
		case "Fault":
			f, err := d.decodeFault()
			if err != nil {
				return err
			}
			return f
		case "request":
			return fmt.Errorf("soap: message is not a response")
		case "response":
			rs.module = d.attrLocalScan("module")
			rs.method = d.attrLocalScan("method")
			if d.sc.SelfClose {
				rs.done = true
			} else {
				rs.respTgt = d.sc.Depth - 1
			}
			return nil
		default:
			if err := d.skipElement(); err != nil {
				return err
			}
		}
	}
}

// NextSequence advances to the next result sequence, discarding any
// unread items of the current one. It reports false once the response
// element is exhausted.
func (rs *ResponseStream) NextSequence() (bool, error) {
	for rs.inSeq || rs.qi < len(rs.queue) {
		it, err := rs.NextItem()
		if err != nil {
			return false, err
		}
		if it == nil {
			break
		}
	}
	if rs.done {
		return false, nil
	}
	d := &rs.d
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return false, err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == rs.respTgt {
				rs.done = true
				return false, nil
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		switch localName(d.sc.Name) {
		case "sequence":
			rs.inSeq = true
			rs.seqEnd = d.sc.SelfClose
			if !d.sc.SelfClose {
				rs.seqTgt = d.sc.Depth - 1
			}
			return true, nil
		case "participatingPeers":
			if rs.peers, err = d.decodePeers(rs.peers); err != nil {
				return false, err
			}
		default:
			if err := d.skipElement(); err != nil {
				return false, err
			}
		}
	}
}

// NextItem returns the next item of the current sequence, or (nil, nil)
// at its end. Delivered items are released from the stream's own
// references, so the caller decides their lifetime.
func (rs *ResponseStream) NextItem() (xdm.Item, error) {
	if rs.qi < len(rs.queue) {
		it := rs.queue[rs.qi]
		rs.queue[rs.qi] = nil
		rs.qi++
		return it, nil
	}
	if !rs.inSeq {
		return nil, fmt.Errorf("soap: NextItem outside a sequence")
	}
	if rs.seqEnd {
		rs.inSeq = false
		return nil, nil
	}
	d := &rs.d
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == rs.seqTgt {
				rs.inSeq = false
				return nil, nil
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		rs.queue = rs.queue[:0]
		rs.qi = 0
		q, err := d.decodeSequenceItem(rs.queue)
		if err != nil {
			return nil, err
		}
		rs.queue = q
		if len(rs.queue) > 0 {
			it := rs.queue[0]
			rs.queue[0] = nil
			rs.qi = 1
			return it, nil
		}
		// the wrapper denoted no items (empty <xrpc:element/>): keep
		// scanning
	}
}

// Finish drains and validates the rest of the document — unread
// sequences, trailing Body and Envelope content, the epilogue — and
// returns the participating peers. A Fault elsewhere in the Body (which
// the buffered decoder gives precedence) surfaces here as a *Fault
// error; a request sibling makes the message not-a-response, matching
// DecodeResponse.
func (rs *ResponseStream) Finish() ([]string, error) {
	if rs.finished {
		return rs.peers, nil
	}
	for {
		ok, err := rs.NextSequence()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	d := &rs.d
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == rs.bodyTgt {
				break
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		switch localName(d.sc.Name) {
		case "Fault":
			f, err := d.decodeFault()
			if err != nil {
				return nil, err
			}
			return nil, f
		case "request":
			return nil, fmt.Errorf("soap: message is not a response")
		default:
			if err := d.skipElement(); err != nil {
				return nil, err
			}
		}
	}
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, err
		}
		if tok == xmlscan.End {
			if d.sc.Depth == rs.envTgt {
				break
			}
			continue
		}
		if tok != xmlscan.Start {
			continue
		}
		if err := d.skipElement(); err != nil {
			return nil, err
		}
	}
	if err := d.drain(); err != nil {
		return nil, err
	}
	rs.finished = true
	return rs.peers, nil
}
