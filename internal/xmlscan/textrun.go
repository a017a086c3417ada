package xmlscan

// TextRun joins a run of adjacent text tokens (character data split at
// CDATA sections, entity-free or not) into one value, copying each piece
// once: tree builders merge such runs into a single text node, and
// appending to the node's value piece by piece would take quadratic
// time.
type TextRun struct {
	first string
	buf   []byte
	n     int
}

// Add appends the next piece of the run.
func (t *TextRun) Add(v string) {
	switch t.n {
	case 0:
		t.first = v
	case 1:
		t.buf = append(append(t.buf[:0], t.first...), v...)
	default:
		t.buf = append(t.buf, v...)
	}
	t.n++
}

// Pending reports whether a run has started since the last Take.
func (t *TextRun) Pending() bool { return t.n > 0 }

// Take returns the joined run and starts a new one.
func (t *TextRun) Take() string {
	v := t.first
	if t.n > 1 {
		v = string(t.buf)
	}
	t.first, t.n = "", 0
	return v
}
