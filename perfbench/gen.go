package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

// The input generator. It writes XML bytes from a seed with no engine code:
// the engine only ever sees the bytes, and the oracle reads the same bytes.
// The documents follow the use-case DTDs of the paper's Fig. 5 (the shapes
// the engine's schema catalog declares), so every unnesting the catalog
// admits is sound on them.

// corpusSize fixes the size of the paper corpus.
type corpusSize struct {
	Books        int // bib.xml books, reviews.xml entries, prices.xml titles
	Bids         int // bids.xml bidtuples
	Publications int // dblp.xml publications
}

// doc is one generated document.
type doc struct {
	URI string
	XML []byte
}

// paperCorpus generates bib, reviews, prices, bids and dblp documents.
func paperCorpus(seed int64, sz corpusSize) []doc {
	return []doc{
		{"bib.xml", genBib(seed, sz.Books)},
		{"reviews.xml", genReviews(seed+1, sz.Books)},
		{"prices.xml", genPrices(seed+2, sz.Books)},
		{"bids.xml", genBids(seed+3, sz.Bids)},
		{"dblp.xml", genDBLP(seed+4, sz.Publications)},
	}
}

func corpusBytes(docs []doc) int {
	n := 0
	for _, d := range docs {
		n += len(d.XML)
	}
	return n
}

// authorName mirrors the paper's data: a sprinkling of authors named Suciu
// keeps the Sec. 5.4 contains() predicate selective but non-empty, and
// first names stay unique, so full names are distinct.
func authorName(i int) (last, first string) {
	if i%41 == 7 {
		return "Suciu", fmt.Sprintf("First%d", i)
	}
	return fmt.Sprintf("Last%d", i), fmt.Sprintf("First%d", i)
}

func bookTitle(i int) string { return fmt.Sprintf("Title %d", i) }

// genBib writes books with a year attribute in [1990, 2003], a unique
// title, two distinct authors (the first round-robin over the author pool,
// so every pool member authors a book), a publisher and a price.
func genBib(seed int64, books int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.WriteString("<bib>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&b, `<book year="%d"><title>%s</title>`, 1990+rng.Intn(14), bookTitle(i))
		first := i % books
		second := rng.Intn(books)
		if second == first {
			second = (second + 1) % books
		}
		for _, a := range []int{first, second} {
			last, fn := authorName(a)
			fmt.Fprintf(&b, "<author><last>%s</last><first>%s</first></author>", last, fn)
		}
		fmt.Fprintf(&b, "<publisher>Publisher %d</publisher><price>%d.%02d</price></book>",
			rng.Intn(20), 10+rng.Intn(90), rng.Intn(100))
	}
	b.WriteString("</bib>")
	return b.Bytes()
}

// genReviews writes one entry per book; half review an existing bib title.
func genReviews(seed int64, books int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.WriteString("<reviews>")
	for i := 0; i < books; i++ {
		title := fmt.Sprintf("Unlisted Title %d", i)
		if rng.Intn(2) == 0 {
			title = bookTitle(rng.Intn(books))
		}
		fmt.Fprintf(&b, "<entry><title>%s</title><price>%d.%02d</price><review>Review text %d.</review></entry>",
			title, 10+rng.Intn(90), rng.Intn(100), i)
	}
	b.WriteString("</reviews>")
	return b.Bytes()
}

// genPrices writes one to three price quotes per bib title.
func genPrices(seed int64, books int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.WriteString("<prices>")
	for i := 0; i < books; i++ {
		for q := 1 + rng.Intn(3); q > 0; q-- {
			fmt.Fprintf(&b, "<book><title>%s</title><source>source%d.example.com</source><price>%d.%02d</price></book>",
				bookTitle(i), q, 10+rng.Intn(90), rng.Intn(100))
		}
	}
	b.WriteString("</prices>")
	return b.Bytes()
}

// genBids writes bid tuples over items 1000..1000+bids/5; half the bids hit
// the first fifth of the items, so count >= 3 selects a non-trivial subset.
func genBids(seed int64, bids int) []byte {
	rng := rand.New(rand.NewSource(seed))
	items := max(bids/5, 1)
	users := max(bids/10, 1)
	var b bytes.Buffer
	b.WriteString("<bids>")
	for i := 0; i < bids; i++ {
		item := rng.Intn(items)
		if rng.Intn(2) == 0 {
			item = rng.Intn(max(items/5, 1))
		}
		fmt.Fprintf(&b, "<bidtuple><userid>U%02d</userid><itemno>%d</itemno><bid>%d</bid><biddate>1999-%02d-%02d</biddate></bidtuple>",
			rng.Intn(users), 1000+item, 10+rng.Intn(400), 1+rng.Intn(12), 1+rng.Intn(28))
	}
	b.WriteString("</bids>")
	return b.Bytes()
}

// genDBLP writes a flat bibliography of books, articles, inproceedings and
// theses; authors of non-books need not author a book, which is the
// Sec. 5.1 case where only the outer-join plan is admissible.
func genDBLP(seed int64, pubs int) []byte {
	rng := rand.New(rand.NewSource(seed))
	pool := max(pubs/2, 1)
	kinds := []string{"article", "inproceedings", "phdthesis"}
	var b bytes.Buffer
	b.WriteString("<dblp>")
	for i := 0; i < pubs; i++ {
		kind := "book"
		if rng.Intn(100) >= 20 {
			kind = kinds[rng.Intn(len(kinds))]
		}
		b.WriteString("<" + kind + ">")
		for a := 1 + rng.Intn(3); a > 0; a-- {
			last, first := authorName(rng.Intn(pool))
			fmt.Fprintf(&b, "<author><last>%s</last><first>%s</first></author>", last, first)
		}
		fmt.Fprintf(&b, "<title>Publication %d</title><year>%d</year></%s>", i, 1980+rng.Intn(24), kind)
	}
	b.WriteString("</dblp>")
	return b.Bytes()
}
