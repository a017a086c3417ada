package xmlscan

import (
	"encoding/xml"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestNameTablesMatchEncodingXML checks isName against encoding/xml on
// every name byte and every non-ASCII BMP character, both as a name's
// first character and after one.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	xmlAccepts := func(name string) bool {
		_, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).RawToken()
		return err == nil
	}
	for r := rune(0); r <= 0xFFFF; r++ {
		if r < utf8.RuneSelf && !xmlNameByte[r] || r >= 0xD800 && r <= 0xDFFF {
			continue // not read as part of a name, or not encodable
		}
		for _, name := range []string{string(r), "a" + string(r)} {
			if got, want := isName([]byte(name)), xmlAccepts(name); got != want {
				t.Fatalf("isName(%q) = %v, encoding/xml accepts it: %v", name, got, want)
			}
		}
	}
}

// TestDocumentChecksStayOutOfEnvelopeMode pins the split between the
// modes: each input is rejected in document mode only, so the envelope
// decoder's accept/reject behaviour does not move.
func TestDocumentChecksStayOutOfEnvelopeMode(t *testing.T) {
	for _, in := range []string{
		"<a>\xff</a>",
		"<a>\x01</a>",
		"<a>&#0;</a>",
		"<a>&#X41;</a>",
		"<a:b:c/>",
		"<a><!-- a -- b --></a>",
		`<a b="<"/>`,
		`<a>]]></a>`,
		`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
		`<!-x><a/>`,
	} {
		if err := scanAll(t, in, false); err != nil {
			t.Errorf("envelope mode rejects %q: %v", in, err)
		}
		if err := scanAll(t, in, true); err == nil {
			t.Errorf("document mode accepts %q", in)
		}
	}
}

func scanAll(t *testing.T, in string, document bool) error {
	t.Helper()
	var s Scanner
	if document {
		s.ResetDocument([]byte(in))
	} else {
		s.Reset([]byte(in), nil)
	}
	for {
		k, err := s.Next()
		if err != nil {
			return err
		}
		switch k {
		case EOF:
			return nil
		case Text, Comment, PI:
			if _, err := s.TextValue(); err != nil {
				return err
			}
		}
	}
}

func TestTextRunJoinsPieces(t *testing.T) {
	var r TextRun
	if r.Pending() {
		t.Fatal("empty run is pending")
	}
	r.Add("a")
	if v := r.Take(); v != "a" || r.Pending() {
		t.Fatalf("single piece: %q", v)
	}
	for _, p := range []string{"", "b", "cd", ""} {
		r.Add(p)
	}
	if !r.Pending() {
		t.Fatal("run of empty and non-empty pieces is not pending")
	}
	if v := r.Take(); v != "bcd" {
		t.Fatalf("joined run = %q, want bcd", v)
	}
}
