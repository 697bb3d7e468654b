package core

import (
	"encoding/json"
	"net/url"
	"reflect"
	"testing"
	"unsafe"
)

// TestRecordStaysLean pins the committed record's footprint. The daemon
// holds every record it commits for as long as it runs, and each record's
// JSON goes to the record log, the snapshot and the shard-worker wire. URL
// facts are derived from ShownURL where they are read, so a record keeps
// no parsed copy of it: no url.URL anywhere in the struct and no URLInfo
// key in its JSON.
func TestRecordStaysLean(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n > 760 {
		t.Errorf("unsafe.Sizeof(Record{}) = %d B, want <= 760", n)
	}
	if path := findType(reflect.TypeOf(Record{}), reflect.TypeOf(url.URL{}), "Record", map[reflect.Type]bool{}); path != "" {
		t.Errorf("Record holds a url.URL at %s", path)
	}
	data, err := json.Marshal(Record{ID: "r1", ShownURL: "https://bit.ly/abc", Shortener: "bitly"})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["URLInfo"]; ok {
		t.Errorf("marshalled record has a URLInfo key: %s", data)
	}
}

// findType returns the field path under t (named at) where want appears,
// through pointers, slices, arrays, maps and struct fields, or "".
func findType(t, want reflect.Type, at string, seen map[reflect.Type]bool) string {
	if t == want {
		return at
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return findType(t.Elem(), want, at+"[]", seen)
	case reflect.Map:
		if p := findType(t.Key(), want, at+"{key}", seen); p != "" {
			return p
		}
		return findType(t.Elem(), want, at+"{}", seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := findType(f.Type, want, at+"."+f.Name, seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestIsSharedPlatformFromShownURL pins that the messaging-host test reads
// the shown URL: chat deep links and shortener domains are someone else's
// infrastructure, a scammer's own domain and an unparsable URL are not.
func TestIsSharedPlatformFromShownURL(t *testing.T) {
	cases := []struct {
		shown, domain string
		want          bool
	}{
		{"https://wa.me/447700900123", "wa.me", true},
		{"https://T.ME/joinchat/abc", "t.me", true},
		{"https://bit.ly/abc", "bit.ly", true},
		{"https://evil-clinic.xyz/login", "evil-clinic.xyz", false},
		{"", "evil-clinic.xyz", false},
		{"http://%zz", "evil-clinic.xyz", false},
	}
	for _, c := range cases {
		rec := Record{ShownURL: c.shown, Domain: c.domain}
		if got := isSharedPlatform(&rec); got != c.want {
			t.Errorf("isSharedPlatform(shown %q, domain %q) = %v, want %v", c.shown, c.domain, got, c.want)
		}
	}
}
