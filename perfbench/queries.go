package main

import (
	"fmt"
	"strconv"
	"strings"

	nalquery "nalquery"
	"nalquery/perfbench/oracle"
)

// paperIDs is the fixed round-robin order of the paper's seven queries.
var paperIDs = []string{"q1", "q1dblp", "q2", "q3", "q4", "q5", "q6"}

// paperText returns the query text the engine ships for a paper query id.
func paperText(id string) string { return nalquery.PaperQueries[id] }

// paperExpect is the oracle's answer to a paper query.
func paperExpect(o *oracle.Corpus, id string) (string, error) {
	switch id {
	case "q1":
		return o.Q1("bib.xml")
	case "q1dblp":
		return o.Q1("dblp.xml")
	case "q2":
		return o.Q2()
	case "q3":
		return o.Q3("")
	case "q4":
		return o.Q4("Suciu")
	case "q5":
		return o.Q5(1993)
	case "q6":
		return o.Q6(3)
	}
	return "", fmt.Errorf("unknown paper query %q", id)
}

// template is a paper query with one literal replaced by a seeded value.
type template struct {
	name string
	// lit draws the literal from a uniform value u in [0, 1) and the corpus
	// size.
	lit    func(u float64, books int) string
	text   func(lit string) string
	expect func(o *oracle.Corpus, lit string) (string, error)
}

// templates are the ad-hoc workload's query shapes: Q3 with a review
// title, Q4 with an author-name needle, Q5 with a year threshold and Q6
// with a bid-count threshold. The literals keep execution selective, so
// compile does most of each operation's work.
var templates = []template{
	{
		name: "title",
		lit:  func(u float64, books int) string { return bookTitle(int(u * float64(2*books))) },
		text: func(lit string) string {
			return `let $d1 := document("bib.xml")
for $t1 in $d1//book/title
where some $t2 in (
        let $d3 := document("reviews.xml")
        for $t3 in $d3//entry/title
        where $t3 = "` + lit + `"
        return $t3 )
      satisfies $t1 = $t2
return
  <book-with-review>
    { $t1 }
  </book-with-review>`
		},
		expect: func(o *oracle.Corpus, lit string) (string, error) { return o.Q3(lit) },
	},
	{
		name: "author",
		// Needles Last100..Last<books-1> match exactly one author's name
		// whenever books <= 1000.
		lit: func(u float64, books int) string {
			lo := min(100, books/2)
			return fmt.Sprintf("Last%d", lo+int(u*float64(books-lo)))
		},
		text: func(lit string) string {
			return `let $d1 := doc("bib.xml")
for $b1 in $d1//book,
    $a1 in $b1/author
where exists(
        for $b2 in $d1//book,
            $a2 in $b2/author
        where contains($a2, "` + lit + `")
          and $b1 = $b2
        return $b2)
return
  <book>
    { $a1 }
  </book>`
		},
		expect: func(o *oracle.Corpus, lit string) (string, error) { return o.Q4(lit) },
	},
	{
		name: "year",
		lit:  func(u float64, _ int) string { return strconv.Itoa(1990 + int(u*14)) },
		text: func(lit string) string {
			return `let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
where every $b2 in doc("bib.xml")//book[author = $a1]
      satisfies $b2/@year > ` + lit + `
return
  <new-author>
    { $a1 }
  </new-author>`
		},
		expect: func(o *oracle.Corpus, lit string) (string, error) {
			y, err := strconv.Atoi(lit)
			if err != nil {
				return "", err
			}
			return o.Q5(float64(y))
		},
	},
	{
		name: "threshold",
		lit:  func(u float64, _ int) string { return strconv.Itoa(3 + int(u*10)) },
		text: func(lit string) string {
			return `let $d1 := document("bids.xml")
for $i1 in distinct-values($d1//itemno)
where count($d1//bidtuple[itemno = $i1]) >= ` + lit + `
return
  <popular-item>
    { $i1 }
  </popular-item>`
		},
		expect: func(o *oracle.Corpus, lit string) (string, error) {
			n, err := strconv.Atoi(lit)
			if err != nil {
				return "", err
			}
			return o.Q6(n)
		},
	},
}

// templateKey names an ad-hoc answer: template name and literal.
func templateKey(t template, lit string) string { return t.name + "/" + lit }

func expectTemplate(o *oracle.Corpus, key string) (string, error) {
	name, lit, _ := strings.Cut(key, "/")
	for _, t := range templates {
		if t.name == name {
			return t.expect(o, lit)
		}
	}
	return "", fmt.Errorf("unknown template key %q", key)
}

// lookup is one of the serving workload's statements: an index-probe
// lookup by book title with a small answer. The text has one %s where the
// title goes, as a literal or as the external variable $title.
type lookup struct {
	name   string
	text   string
	expect func(o *oracle.Corpus, title string) (string, error)
}

var lookups = []lookup{
	{
		name: "authors-of",
		text: `let $d1 := doc("bib.xml")
for $b1 in $d1//book
where $b1/title = %s
return <book>{ $b1/author }</book>`,
		expect: (*oracle.Corpus).AuthorsOf,
	},
	{
		name: "quotes",
		text: `let $d1 := doc("prices.xml")
for $b1 in $d1//book
where $b1/title = %s
return $b1/price`,
		expect: (*oracle.Corpus).Quotes,
	},
}

// prepared is the statement's text with the title as an external variable.
func (l lookup) prepared() string {
	return "declare variable $title external;\n" + fmt.Sprintf(l.text, "$title")
}

// literal is the statement's text with the title inlined.
func (l lookup) literal(title string) string { return fmt.Sprintf(l.text, strconv.Quote(title)) }

func expectLookup(o *oracle.Corpus, key string) (string, error) {
	name, title, _ := strings.Cut(key, "/")
	for _, l := range lookups {
		if l.name == name {
			return l.expect(o, title)
		}
	}
	return "", fmt.Errorf("unknown lookup key %q", key)
}

// unit maps (seed, i) to a uniform value in [0, 1) with a splitmix64
// step: a per-operation draw that needs no generator state.
func unit(seed int64, i int) float64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
