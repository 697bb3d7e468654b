package forum

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// rowRe is the reference for the smishing.eu row scanner: nextEURow must
// find exactly the rows this pattern matches.
var rowRe = regexp.MustCompile(`<tr><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td></tr>`)

// scanEURows returns every row nextEURow finds in doc, shaped as
// FindAllStringSubmatch shapes a match: the whole row, then its cells.
func scanEURows(doc string) [][]string {
	var out [][]string
	for from := 0; ; {
		row, ok := nextEURow(doc, from)
		if !ok {
			return out
		}
		if row.end <= from {
			panic(fmt.Sprintf("nextEURow did not advance: from %d, row ends at %d", from, row.end))
		}
		from = row.end
		m := []string{doc[row.start:row.end]}
		for k := range row.cut {
			m = append(m, row.cell(doc, k))
		}
		out = append(out, m)
	}
}

// renderEUPage returns page 1 of a SmishingEUServer holding posts.
func renderEUPage(posts []post) string {
	rec := httptest.NewRecorder()
	NewSmishingEUServer(posts).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/reports?page=1", nil))
	return rec.Body.String()
}

// cellsHaveNoLT reports whether no cell of the matched rows holds a '<'.
func cellsHaveNoLT(rows [][]string) bool {
	for _, row := range rows {
		for _, c := range row[1:] {
			if strings.Contains(c, "<") {
				return false
			}
		}
	}
	return true
}

// TestSmishingEURowsMatchRegexpOnFixtures runs the scanner and the old
// pattern over every page the fixture world's server renders, with the
// newest posts landing mid-page as they do live.
func TestSmishingEURowsMatchRegexpOnFixtures(t *testing.T) {
	f := BuildFixtures(testWorld(t, 6000))
	if len(f.SmishingEU) == 0 {
		t.Skip("no smishing.eu posts at this seed")
	}
	srv := NewSmishingEUServer(f.SmishingEU[:len(f.SmishingEU)/2])
	srv.Append(f.SmishingEU[len(f.SmishingEU)/2:])
	h := srv.Handler()
	pages := (len(f.SmishingEU) + smishingEUPageSize - 1) / smishingEUPageSize
	rows := 0
	for page := 1; page <= pages+1; page++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/reports?page=%d", page), nil))
		doc := rec.Body.String()
		got, want := scanEURows(doc), rowRe.FindAllStringSubmatch(doc, -1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("page %d: scanner rows differ from the regexp's\ngot  %q\nwant %q", page, got, want)
		}
		rows += len(got)
	}
	if rows == 0 {
		t.Fatal("no rows scraped")
	}
}

// FuzzSmishingEURows checks the row scanner against the old pattern. No
// input may panic it. On the fuzzed bytes taken as a page, and on a page
// SmishingEUServer renders from the bytes' '|'-separated fields, it must
// return exactly the rows the pattern returns whenever no cell holds a
// '<' — which covers every page the server renders, since it
// HTML-escapes each cell. Inputs are capped at 1 KiB, so a short run
// spends its time exploring, not minimizing one large page. Seeds live in
// testdata/fuzz/FuzzSmishingEURows.
func FuzzSmishingEURows(f *testing.F) {
	day := time.Date(2025, 3, 4, 0, 0, 0, 0, time.UTC)
	f.Add(renderEUPage([]post{
		{CreatedAt: day, Timestamp: "2025-03-04", Country: "FR", SenderID: "+33612345678", Brand: "Ameli", SMSText: "Votre carte Vitale expire: https://ameli-fr.test/x"},
		{CreatedAt: day, Timestamp: "2025-03-04", Country: "DE", SenderID: "DHL", Brand: "DHL", SMSText: "Paket <wartet> & \"Zoll\" fällig"},
	}))
	f.Add("2025-01-02|NL|+3161234|PostNL|two\nlines|2025-01-03|BE|itsme|bpost|x")
	const maxInput = 1 << 10
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > maxInput {
			return
		}
		check := func(what, doc string) {
			got := scanEURows(doc)
			want := rowRe.FindAllStringSubmatch(doc, -1)
			if len(want) == 0 {
				want = nil
			}
			if cellsHaveNoLT(want) && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: scanner rows differ from the regexp's\ndoc  %q\ngot  %q\nwant %q", what, doc, got, want)
			}
		}
		check("raw page", input)

		fields := strings.Split(input, "|")
		var posts []post
		for i := 0; i+5 <= len(fields); i += 5 {
			posts = append(posts, post{CreatedAt: day, Timestamp: fields[i], Country: fields[i+1],
				SenderID: fields[i+2], Brand: fields[i+3], SMSText: fields[i+4]})
		}
		doc := renderEUPage(posts)
		if rows := rowRe.FindAllStringSubmatch(doc, -1); !cellsHaveNoLT(rows) {
			t.Fatalf("rendered page has a '<' in a cell: %q", doc)
		}
		check("rendered page", doc)
	})
}
