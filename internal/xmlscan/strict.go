package xmlscan

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// strict.go holds the checks of document mode: the well-formedness
// rules encoding/xml enforces when it tokenizes a document (Strict
// decoder, RawToken), so that a document parses here exactly when it
// parsed there. Envelope and stream mode skip all of them.
//
//   - text, CDATA and attribute values are valid UTF-8 made of XML Chars,
//     and text holds no "]]>";
//   - names are XML Names, element and attribute names with at most one
//     colon (checked once per distinct name, as it enters the table);
//   - a comment holds no "--";
//   - an attribute value holds no raw '<';
//   - character references are lowercase-x hex or decimal, and name a
//     Char; named entities other than the five predefined ones fail;
//   - an XML declaration names version 1.0 (or none) and UTF-8 (or no
//     encoding);
//   - directives and malformed "<!-" / "<![" openers follow encoding/xml.
//
// Comments and PIs keep their bytes verbatim (encoding/xml applies no
// line-end normalization to them).

// xmlNameByte marks the ASCII bytes encoding/xml reads as part of a
// name; every byte >= 0x80 does too (the name check validates them).
var xmlNameByte [256]bool

func init() {
	for c := 0; c < 256; c++ {
		xmlNameByte[c] = c >= utf8.RuneSelf || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			'0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
	}
}

// isName reports whether b is an XML Name.
func isName(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	r, n := utf8.DecodeRune(b)
	if r == utf8.RuneError && n == 1 || !unicode.Is(nameStart, r) {
		return false
	}
	for b = b[n:]; len(b) > 0; b = b[n:] {
		r, n = utf8.DecodeRune(b)
		if r == utf8.RuneError && n == 1 || !unicode.Is(nameStart, r) && !unicode.Is(nameRest, r) {
			return false
		}
	}
	return true
}

// isQName reports whether b is a valid element or attribute name: an
// XML Name with at most one colon.
func isQName(b []byte) bool {
	return isName(b) && bytes.Count(b, []byte{':'}) <= 1
}

// isChar reports whether r is in the XML Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// charClass marks the bytes checkChars must look at: ASCII controls
// other than tab/newline/CR, ']' (a possible "]]>"), and every byte >=
// 0x80 (UTF-8 to decode).
var charClass [256]bool

func init() {
	for c := 0; c < 256; c++ {
		charClass[c] = c < 0x20 && c != '\t' && c != '\n' && c != '\r' || c == ']' || c >= utf8.RuneSelf
	}
}

// checkChars verifies that b is valid UTF-8 made of XML Chars; in
// character data (text set) it also rejects "]]>". Raw bytes suffice:
// entity references are ASCII, and the characters they expand to are
// checked by charRefStrict.
func (s *Scanner) checkChars(b []byte, text bool) error {
	for i := 0; i < len(b); {
		c := b[i]
		if !charClass[c] {
			i++
			continue
		}
		if c == ']' {
			if text && bytes.HasPrefix(b[i:], markCDATAEnd) {
				return s.errf("unescaped ]]> not in CDATA section")
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && n == 1 {
			return s.errf("invalid UTF-8")
		}
		if !isChar(r) {
			return s.errf("illegal character code %U", r)
		}
		i += n
	}
	return nil
}

var errInvalidCharRef = errors.New("invalid character reference")

// charRefStrict decodes the body of a character reference (after "&#")
// as encoding/xml does: decimal, or hex after a lowercase 'x'; a value
// up to U+10FFFF converts like string(rune(n)), so a surrogate becomes
// U+FFFD; the result must be a Char.
func charRefStrict(b []byte) (rune, error) {
	base := 10
	if len(b) > 0 && b[0] == 'x' {
		base = 16
		b = b[1:]
	}
	n, err := strconv.ParseUint(string(b), base, 64)
	if err != nil || n > unicode.MaxRune {
		return 0, errInvalidCharRef
	}
	r := rune(n)
	if !utf8.ValidRune(r) {
		r = utf8.RuneError
	}
	if !isChar(r) {
		return 0, errInvalidCharRef
	}
	return r, nil
}

// commentEndStrict returns the offset of the "-->" closing the comment
// whose content starts at start, or -1 if the input ends first. The
// first "--" must be that terminator.
func (s *Scanner) commentEndStrict(start int) (int, error) {
	i := bytes.Index(s.data[start:], markCommentEnd[:2])
	if i < 0 {
		return -1, nil
	}
	i += start
	if i+2 >= len(s.data) || s.data[i+2] != '>' {
		return 0, s.errf(`"--" inside comment`)
	}
	return i, nil
}

// skipDirectiveStrict consumes a <!...> directive the way encoding/xml
// does. The byte after "<!" is taken literally (it must not be '-' or
// '[', which open malformed comments and CDATA sections); after it, a
// '>' outside quotes ends the directive unless a '<' opened a nested
// declaration, and "<!--" starts a comment that runs to "-->".
func (s *Scanner) skipDirectiveStrict() error {
	d := s.data
	i := s.pos + 2
	if i >= len(d) {
		return s.errf("unterminated directive")
	}
	switch d[i] {
	case '-':
		return s.errf("malformed comment")
	case '[':
		return s.errf("malformed CDATA section")
	}
	var quote byte
	depth := 0
	for i++; i < len(d); i++ {
		c := d[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			if depth == 0 {
				s.pos = i + 1
				return nil
			}
			depth--
		case c == '<':
			if !bytes.HasPrefix(d[i:], markCommentStart) {
				depth++
				continue
			}
			j := bytes.Index(d[i+len(markCommentStart):], markCommentEnd)
			if j < 0 {
				return s.errf("unterminated comment in directive")
			}
			i += len(markCommentStart) + j + len(markCommentEnd) - 1
		}
	}
	return s.errf("unterminated directive")
}

// checkDecl applies encoding/xml's XML-declaration checks to the
// content of <?xml ...?>.
func (s *Scanner) checkDecl(content []byte) error {
	c := string(content)
	if v := declParam("version", c); v != "" && v != "1.0" {
		return s.errf("unsupported version %q; only version 1.0 is supported", v)
	}
	if enc := declParam("encoding", c); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return s.errf("unsupported encoding %q; only UTF-8 is supported", enc)
	}
	return nil
}

// declParam returns the quoted value of param in an XML declaration, ""
// if there is none. Like encoding/xml it finds `param=` as a substring
// and takes the first occurrence followed by a quote.
func declParam(param, s string) string {
	key := param + "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], key)
		if k < 0 || i+k+len(key) >= len(s) {
			return ""
		}
		q := s[i+k+len(key)]
		i += k + len(key) + 1
		if q == '\'' || q == '"' {
			j := strings.IndexByte(s[i:], q)
			if j < 0 {
				return ""
			}
			return s[i : i+j]
		}
	}
	return ""
}
