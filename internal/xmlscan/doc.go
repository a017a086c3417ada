// Package xmlscan is the repository's one XML tokenizer: a hand-rolled
// pull scanner that works directly on a []byte (or refills from an
// io.Reader) with no reflection and no DOM. The SOAP envelope decoder
// and the XDM document parser both build on it.
//
// Element and attribute names are interned (the envelope grammar
// repeats the same two dozen names thousands of times in a bulk
// request, a document its tag names), and text is only unescaped when
// the caller actually keeps it.
//
// The scanner has three modes sharing every scan routine:
//
//   - envelope mode (Reset): data holds the whole message. Every
//     "refill" is a no-op, so the hot loops stay plain byte loops.
//   - stream mode (ResetReader): the reader refills data incrementally,
//     so envelopes decode as bytes arrive off the socket. Scans hold
//     absolute offsets into data, so refills only ever append; the
//     consumed prefix is reclaimed between tokens (compact), keeping the
//     window bounded by the largest single token plus one read.
//   - document mode (ResetDocument): byte input plus the well-formedness
//     checks encoding/xml makes when it tokenizes a document (see
//     strict.go). Envelopes never pay for them.
package xmlscan
