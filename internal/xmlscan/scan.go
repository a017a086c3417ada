package xmlscan

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// Kind is the kind of the token Next produced.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	// Start is a start tag (or a self-closing element: SelfClose set);
	// Name and Attrs describe it.
	Start
	// End is an end tag. End-tag names are not matched against start
	// tags (encoding/xml's RawToken does not either); only balance is
	// enforced.
	End
	// Text is character data or a CDATA section; TextValue decodes it.
	Text
	// Comment is a comment; TextValue returns its content.
	Comment
	// PI is a processing instruction; Name is the target, TextValue the
	// instruction.
	PI
)

// Attr is one attribute of the current start tag, value unescaped.
type Attr struct{ Name, Value string }

// Scanner is the pull tokenizer state. Select a mode with Reset,
// ResetReader or ResetDocument, then call Next until it returns EOF or
// an error.
type Scanner struct {
	// Name, Attrs and SelfClose describe the current token (see Kind);
	// they stay valid until the following Next call.
	Name      string
	Attrs     []Attr
	SelfClose bool
	// Depth is the element nesting depth after the current token. Next
	// maintains it and rejects underflow and unclosed elements at EOF.
	Depth int

	data []byte
	pos  int

	// src, when non-nil, refills data from an incremental reader. It is
	// cleared at EOF; a non-EOF read error is held in srcErr and
	// surfaces as soon as the scanner needs bytes it never got.
	src    io.Reader
	srcErr error

	// text is the current text/comment/PI token's raw bytes: entities
	// still escaped unless cdata is set; a cdata token that is also
	// verbatim (set only together with cdata) keeps its line ends too.
	text     []byte
	cdata    bool
	verbatim bool

	// strict selects document mode.
	strict bool

	// common pre-interns the names and attribute values a message
	// grammar repeats (read only, shared between scanners).
	common map[string]string
	// names interns tag/attribute names not in common (and, outside
	// document mode, short texts too).
	names map[string]string
}

// Reset prepares s to tokenize data, a whole message. common, which may
// be nil, maps the strings the message grammar repeats to themselves;
// names and attribute values found there are not allocated again. A
// lookup via string(b) compiles to a no-allocation map access.
func (s *Scanner) Reset(data []byte, common map[string]string) {
	*s = Scanner{data: data, common: common}
}

// ResetReader prepares s to tokenize r incrementally; common is as for
// Reset.
func (s *Scanner) ResetReader(r io.Reader, common map[string]string) {
	*s = Scanner{src: r, common: common}
}

// ResetDocument prepares s to tokenize data, a whole XML document, with
// the checks of document mode.
func (s *Scanner) ResetDocument(data []byte) { *s = Scanner{data: data, strict: true} }

const (
	// minRead is the smallest free space grow() will read into; below
	// it the buffer is regrown first so reads stay reasonably sized.
	minRead = 512
	// initialStreamBuf is the first allocation for a stream-mode
	// window.
	initialStreamBuf = 4096
	// compactThreshold is how much consumed prefix accumulates before
	// compact() slides the window; sliding on every token would make
	// tokenizing an n-byte buffer O(n²).
	compactThreshold = 4096
)

// grow appends more input from src to data without moving existing
// bytes (in-flight scans hold absolute offsets into data). It reports
// whether at least one new byte arrived; false with a nil error means
// the input is complete (byte input, or stream EOF).
func (s *Scanner) grow() (bool, error) {
	for s.src != nil {
		if cap(s.data)-len(s.data) < minRead {
			newCap := 2 * cap(s.data)
			if newCap < initialStreamBuf {
				newCap = initialStreamBuf
			}
			buf := make([]byte, len(s.data), newCap)
			copy(buf, s.data)
			s.data = buf
		}
		n, err := s.src.Read(s.data[len(s.data):cap(s.data)])
		s.data = s.data[:len(s.data)+n]
		if err != nil {
			s.src = nil
			if err != io.EOF {
				s.srcErr = fmt.Errorf("xml: reading input: %w", err)
			}
		}
		if n > 0 {
			return true, nil
		}
	}
	return false, s.srcErr
}

// compact slides the unconsumed window to the front of the buffer. Only
// called between tokens (the previous token's name/attr values are
// copied strings; its text bytes are dead by contract) and only in
// stream mode, once the consumed prefix is worth reclaiming.
func (s *Scanner) compact() {
	if s.src == nil || s.pos == 0 {
		return
	}
	if s.pos == len(s.data) {
		s.data = s.data[:0]
		s.pos = 0
		return
	}
	if s.pos >= compactThreshold || s.pos*2 >= cap(s.data) {
		n := copy(s.data, s.data[s.pos:])
		s.data = s.data[:n]
		s.pos = 0
	}
}

func (s *Scanner) intern(b []byte) string {
	if v, ok := s.common[string(b)]; ok {
		return v
	}
	if v, ok := s.names[string(b)]; ok {
		return v
	}
	if s.names == nil {
		s.names = make(map[string]string, 8)
	}
	v := string(b)
	s.names[v] = v
	return v
}

// checkedName interns an element or attribute name in document mode,
// where a name is checked the first time the table sees it.
func (s *Scanner) checkedName(b []byte) (string, error) {
	if v, ok := s.names[string(b)]; ok {
		return v, nil
	}
	if !isQName(b) {
		return "", s.errf("invalid XML name %q", b)
	}
	if s.names == nil {
		s.names = make(map[string]string, 64)
	}
	v := string(b)
	s.names[v] = v
	return v, nil
}

func (s *Scanner) errf(format string, args ...any) error {
	if s.strict {
		line := 1 + bytes.Count(s.data[:s.pos], []byte{'\n'})
		return fmt.Errorf("xml: line %d: "+format, append([]any{line}, args...)...)
	}
	return fmt.Errorf("xml: "+format, args...)
}

// Next advances to the next token. Iterative over skipped directives: a
// run of millions of <!...> directives must not consume stack.
func (s *Scanner) Next() (Kind, error) {
	s.compact()
	for {
		for s.pos >= len(s.data) {
			ok, err := s.grow()
			if err != nil {
				return EOF, err
			}
			if !ok {
				if s.Depth > 0 {
					return EOF, s.errf("%d unclosed element(s)", s.Depth)
				}
				return EOF, nil
			}
		}
		if s.data[s.pos] != '<' {
			return s.scanText()
		}
		// Classifying a '<' needs up to len("<![CDATA[") bytes of
		// lookahead; refill until they arrive or the input ends short.
		for s.src != nil && s.pos+9 > len(s.data) {
			if ok, err := s.grow(); err != nil {
				return EOF, err
			} else if !ok {
				break
			}
		}
		if s.pos+1 >= len(s.data) {
			return EOF, s.errf("unexpected EOF after '<'")
		}
		switch s.data[s.pos+1] {
		case '/':
			return s.scanEndTag()
		case '!':
			rest := s.data[s.pos:]
			if bytes.HasPrefix(rest, markCommentStart) {
				return s.scanComment()
			}
			if bytes.HasPrefix(rest, markCDATAStart) {
				return s.scanCDATA()
			}
			// DOCTYPE and other directives are skipped
			var err error
			if s.strict {
				err = s.skipDirectiveStrict()
			} else {
				err = s.skipDirective()
			}
			if err != nil {
				return EOF, err
			}
		case '?':
			return s.scanPI()
		default:
			return s.scanStartTag()
		}
	}
}

var (
	markCommentStart = []byte("<!--")
	markCommentEnd   = []byte("-->")
	markCDATAStart   = []byte("<![CDATA[")
	markCDATAEnd     = []byte("]]>")
	markPIEnd        = []byte("?>")
)

func (s *Scanner) scanText() (Kind, error) {
	from, end := s.pos, -1
	for end < 0 {
		if i := bytes.IndexByte(s.data[from:], '<'); i >= 0 {
			end = from + i
			break
		}
		from = len(s.data)
		if ok, err := s.grow(); err != nil {
			return EOF, err
		} else if !ok {
			end = len(s.data)
		}
	}
	s.text = s.data[s.pos:end]
	s.cdata = false
	if s.strict {
		if err := s.checkChars(s.text, true); err != nil {
			return EOF, err
		}
	}
	s.pos = end
	return Text, nil
}

func isNameByte(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '/', '>', '=', '<', '"', '\'':
		return false
	}
	return true
}

func skipWS(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// nameEnd advances i past name bytes, refilling at the buffer edge.
// Document mode delimits names the way encoding/xml does: by any ASCII
// byte that cannot occur in a name.
func (s *Scanner) nameEnd(i int) (int, error) {
	if s.strict {
		for i < len(s.data) && xmlNameByte[s.data[i]] {
			i++
		}
		return i, nil
	}
	for {
		for i < len(s.data) && isNameByte(s.data[i]) {
			i++
		}
		if i < len(s.data) {
			return i, nil
		}
		if ok, err := s.grow(); err != nil {
			return i, err
		} else if !ok {
			return i, nil
		}
	}
}

// wsEnd advances i past whitespace, refilling at the buffer edge.
func (s *Scanner) wsEnd(i int) (int, error) {
	for {
		i = skipWS(s.data, i)
		if i < len(s.data) {
			return i, nil
		}
		if ok, err := s.grow(); err != nil {
			return i, err
		} else if !ok {
			return i, nil
		}
	}
}

// find locates marker at or after start, refilling as needed; returns
// -1 when the input ends first. The resume offset backs up
// len(marker)-1 bytes so a marker split across reads is still found
// without rescanning the whole window.
func (s *Scanner) find(start int, marker []byte) (int, error) {
	from := start
	for {
		if i := bytes.Index(s.data[from:], marker); i >= 0 {
			return from + i, nil
		}
		from = len(s.data) - len(marker) + 1
		if from < start {
			from = start
		}
		if ok, err := s.grow(); err != nil {
			return -1, err
		} else if !ok {
			return -1, nil
		}
	}
}

func (s *Scanner) scanStartTag() (Kind, error) {
	start := s.pos + 1
	i, err := s.nameEnd(start)
	if err != nil {
		return EOF, err
	}
	if i == start {
		return EOF, s.errf("malformed start tag at offset %d", s.pos)
	}
	if !s.strict {
		s.Name = s.intern(s.data[start:i])
	} else if s.Name, err = s.checkedName(s.data[start:i]); err != nil {
		return EOF, err
	}
	s.Attrs = s.Attrs[:0]
	s.SelfClose = false
	for {
		if i, err = s.wsEnd(i); err != nil {
			return EOF, err
		}
		if i >= len(s.data) {
			return EOF, s.errf("unterminated start tag <%s", s.Name)
		}
		switch s.data[i] {
		case '>':
			s.pos = i + 1
			s.Depth++
			return Start, nil
		case '/':
			for i+1 >= len(s.data) {
				if ok, err := s.grow(); err != nil {
					return EOF, err
				} else if !ok {
					break
				}
			}
			if i+1 >= len(s.data) || s.data[i+1] != '>' {
				return EOF, s.errf("malformed element <%s", s.Name)
			}
			s.SelfClose = true
			s.pos = i + 2
			return Start, nil
		}
		as := i
		if i, err = s.nameEnd(i); err != nil {
			return EOF, err
		}
		if i == as {
			return EOF, s.errf("malformed attribute in <%s>", s.Name)
		}
		var aname string
		if !s.strict {
			aname = s.intern(s.data[as:i])
		} else if aname, err = s.checkedName(s.data[as:i]); err != nil {
			return EOF, err
		}
		if i, err = s.wsEnd(i); err != nil {
			return EOF, err
		}
		if i >= len(s.data) || s.data[i] != '=' {
			return EOF, s.errf("attribute %s in <%s> has no value", aname, s.Name)
		}
		if i, err = s.wsEnd(i + 1); err != nil {
			return EOF, err
		}
		if i >= len(s.data) || (s.data[i] != '"' && s.data[i] != '\'') {
			return EOF, s.errf("unquoted value for attribute %s in <%s>", aname, s.Name)
		}
		quote := s.data[i]
		i++
		vs := i
		for {
			if j := bytes.IndexByte(s.data[i:], quote); j >= 0 {
				i += j
				break
			}
			i = len(s.data)
			if ok, err := s.grow(); err != nil {
				return EOF, err
			} else if !ok {
				return EOF, s.errf("unterminated value for attribute %s in <%s>", aname, s.Name)
			}
		}
		val, err := s.attrValue(s.data[vs:i])
		if err != nil {
			return EOF, err
		}
		s.Attrs = append(s.Attrs, Attr{Name: aname, Value: val})
		i++
	}
}

// attrValue unescapes an attribute value, interning the common constant
// values (type names, namespace URIs).
func (s *Scanner) attrValue(raw []byte) (string, error) {
	if s.strict {
		if bytes.IndexByte(raw, '<') >= 0 {
			return "", s.errf("unescaped < inside attribute value")
		}
		if err := s.checkChars(raw, false); err != nil {
			return "", err
		}
	}
	if bytes.IndexByte(raw, '&') < 0 && bytes.IndexByte(raw, '\r') < 0 {
		if v, ok := s.common[string(raw)]; ok {
			return v, nil
		}
		return string(raw), nil
	}
	out, err := s.unescape(make([]byte, 0, len(raw)), raw)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

func (s *Scanner) scanEndTag() (Kind, error) {
	start := s.pos + 2
	i, err := s.nameEnd(start)
	if err != nil {
		return EOF, err
	}
	if i == start {
		return EOF, s.errf("malformed end tag at offset %d", s.pos)
	}
	if !s.strict {
		s.Name = s.intern(s.data[start:i])
	} else if s.Name, err = s.checkedName(s.data[start:i]); err != nil {
		return EOF, err
	}
	if i, err = s.wsEnd(i); err != nil {
		return EOF, err
	}
	if i >= len(s.data) || s.data[i] != '>' {
		return EOF, s.errf("malformed end tag </%s", s.Name)
	}
	s.pos = i + 1
	if s.Depth == 0 {
		return EOF, s.errf("unbalanced end tag </%s>", s.Name)
	}
	s.Depth--
	return End, nil
}

func (s *Scanner) scanComment() (Kind, error) {
	start := s.pos + len("<!--")
	var end int
	var err error
	if s.strict {
		end, err = s.commentEndStrict(start)
	} else {
		end, err = s.find(start, markCommentEnd)
	}
	if err != nil {
		return EOF, err
	}
	if end < 0 {
		return EOF, s.errf("unterminated comment")
	}
	s.text = s.data[start:end]
	s.cdata = true // comments get no entity expansion
	s.verbatim = s.strict
	s.pos = end + len("-->")
	return Comment, nil
}

func (s *Scanner) scanCDATA() (Kind, error) {
	start := s.pos + len("<![CDATA[")
	end, err := s.find(start, markCDATAEnd)
	if err != nil {
		return EOF, err
	}
	if end < 0 {
		return EOF, s.errf("unterminated CDATA section")
	}
	s.text = s.data[start:end]
	if s.strict {
		if err := s.checkChars(s.text, false); err != nil {
			return EOF, err
		}
	}
	s.cdata, s.verbatim = true, false
	s.pos = end + len("]]>")
	return Text, nil
}

func (s *Scanner) scanPI() (Kind, error) {
	start := s.pos + 2
	i := start
	if s.strict {
		i, _ = s.nameEnd(start)
	} else {
		for {
			for i < len(s.data) && isNameByte(s.data[i]) && s.data[i] != '?' {
				i++
			}
			if i < len(s.data) {
				break
			}
			if ok, err := s.grow(); err != nil {
				return EOF, err
			} else if !ok {
				break
			}
		}
	}
	if i == start {
		return EOF, s.errf("processing instruction without a target")
	}
	if s.strict {
		if !isName(s.data[start:i]) {
			return EOF, s.errf("invalid processing instruction target %q", s.data[start:i])
		}
		s.Name = string(s.data[start:i])
	} else {
		s.Name = s.intern(s.data[start:i])
	}
	var err error
	if i, err = s.wsEnd(i); err != nil {
		return EOF, err
	}
	end, err := s.find(i, markPIEnd)
	if err != nil {
		return EOF, err
	}
	if end < 0 {
		return EOF, s.errf("unterminated processing instruction <?%s", s.Name)
	}
	s.text = s.data[i:end]
	s.cdata = true
	s.verbatim = s.strict
	if s.strict && s.Name == "xml" {
		if err := s.checkDecl(s.text); err != nil {
			return EOF, err
		}
	}
	s.pos = end + len("?>")
	return PI, nil
}

// skipDirective consumes a <!DOCTYPE ...> (or any <!...>) directive,
// tolerating an internal subset in brackets and quoted strings.
func (s *Scanner) skipDirective() error {
	i := s.pos + 2
	bracket := 0
	var quote byte
	for {
		for i < len(s.data) {
			c := s.data[i]
			switch {
			case quote != 0:
				if c == quote {
					quote = 0
				}
			case c == '"' || c == '\'':
				quote = c
			case c == '[':
				bracket++
			case c == ']':
				bracket--
			case c == '>' && bracket <= 0:
				s.pos = i + 1
				return nil
			}
			i++
		}
		if ok, err := s.grow(); err != nil {
			return err
		} else if !ok {
			return s.errf("unterminated directive")
		}
	}
}

// maxInternedText bounds the text values worth interning: short values
// (document names, probe keys, repeated element text in bulk requests)
// recur across calls; long payloads do not.
const maxInternedText = 32

// TextValue returns the current text, comment or PI token as a string,
// expanding entities and normalizing line endings; the single place raw
// bytes become a kept Go string. Outside document mode short clean
// values are interned — a bulk request repeats the same parameter texts
// across its calls.
func (s *Scanner) TextValue() (string, error) {
	raw := s.text
	if s.cdata {
		// verbatim tokens only occur in document mode, which interns
		// nothing, so internText copies them as they are
		if s.verbatim || bytes.IndexByte(raw, '\r') < 0 {
			return s.internText(raw), nil
		}
		out, _ := s.unescapeNoEntities(make([]byte, 0, len(raw)), raw)
		return string(out), nil
	}
	if bytes.IndexByte(raw, '&') < 0 && bytes.IndexByte(raw, '\r') < 0 {
		return s.internText(raw), nil
	}
	out, err := s.unescape(make([]byte, 0, len(raw)), raw)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// internText interns short texts outside document mode; there the
// table holds checked names only.
func (s *Scanner) internText(raw []byte) string {
	if s.strict || len(raw) > maxInternedText {
		return string(raw)
	}
	return s.intern(raw)
}

// unescape expands the five predefined entities and numeric character
// references, and normalizes \r\n / \r to \n (the XML line-ending rule
// encoding/xml applies).
func (s *Scanner) unescape(dst, raw []byte) ([]byte, error) {
	for i := 0; i < len(raw); {
		switch raw[i] {
		case '&':
			semi := bytes.IndexByte(raw[i:], ';')
			if semi < 2 {
				return nil, s.errf("invalid entity reference")
			}
			ent := raw[i+1 : i+semi]
			if ent[0] == '#' {
				var r rune
				var err error
				if s.strict {
					r, err = charRefStrict(ent[1:])
				} else {
					r, err = parseCharRef(ent[1:])
				}
				if err != nil {
					return nil, s.errf("%v", err)
				}
				dst = utf8.AppendRune(dst, r)
			} else {
				switch string(ent) {
				case "lt":
					dst = append(dst, '<')
				case "gt":
					dst = append(dst, '>')
				case "amp":
					dst = append(dst, '&')
				case "apos":
					dst = append(dst, '\'')
				case "quot":
					dst = append(dst, '"')
				default:
					return nil, s.errf("unknown entity &%s;", ent)
				}
			}
			i += semi + 1
		case '\r':
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
			dst = append(dst, '\n')
			i++
		default:
			dst = append(dst, raw[i])
			i++
		}
	}
	return dst, nil
}

// unescapeNoEntities only normalizes line endings (CDATA, comments).
func (s *Scanner) unescapeNoEntities(dst, raw []byte) ([]byte, error) {
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\r' {
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
			dst = append(dst, '\n')
			continue
		}
		dst = append(dst, raw[i])
	}
	return dst, nil
}

func parseCharRef(b []byte) (rune, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty character reference")
	}
	base := 10
	if b[0] == 'x' || b[0] == 'X' {
		base = 16
		b = b[1:]
	}
	n, err := strconv.ParseUint(string(b), base, 32)
	if err != nil {
		return 0, fmt.Errorf("invalid character reference")
	}
	r := rune(n)
	if !utf8.ValidRune(r) {
		return 0, fmt.Errorf("invalid character reference")
	}
	return r, nil
}
