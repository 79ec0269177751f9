// Package oracle computes the expected answers of the benchmark's queries
// independently of the engine: it reads the generated XML bytes with
// encoding/xml into a plain tree and evaluates each query template with
// ordinary Go loops over that tree, in document order.
//
// It imports nothing from the engine, so an engine fault cannot hide in the
// expected answer. Answers are returned as the exact bytes the engine's
// serializer emits for them (constructed elements, deep copies of source
// elements, numbers in XQuery's shortest decimal form).
package oracle

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Node is one element or text node of a parsed document.
type Node struct {
	Name  string // element name; "" for a text node
	Attrs []xml.Attr
	Kids  []*Node
	Text  string // text nodes only
}

// Parse reads one XML document and returns its root element.
func Parse(b []byte) (*Node, error) {
	dec := xml.NewDecoder(bytes.NewReader(b))
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Name: t.Name.Local, Attrs: append([]xml.Attr(nil), t.Attr...)}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				p.Kids = append(p.Kids, n)
			} else if root == nil {
				root = n
			}
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 || len(bytes.TrimSpace(t)) == 0 {
				continue
			}
			p := stack[len(stack)-1]
			p.Kids = append(p.Kids, &Node{Text: string(t)})
		}
	}
	if root == nil {
		return nil, errors.New("oracle: parse: no root element")
	}
	return root, nil
}

// StringValue is the concatenated text of the node's subtree.
func (n *Node) StringValue() string {
	if n.Name == "" {
		return n.Text
	}
	var sb strings.Builder
	n.appendText(&sb)
	return sb.String()
}

func (n *Node) appendText(sb *strings.Builder) {
	for _, k := range n.Kids {
		if k.Name == "" {
			sb.WriteString(k.Text)
		} else {
			k.appendText(sb)
		}
	}
}

// Attr returns the value of the named attribute.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name.Local == name {
			return a.Value, true
		}
	}
	return "", false
}

// Children returns the element children with the given name.
func (n *Node) Children(name string) []*Node {
	var out []*Node
	for _, k := range n.Kids {
		if k.Name == name {
			out = append(out, k)
		}
	}
	return out
}

// Descendants returns the elements named name in the subtree below and
// including n, in document order: the nodes of the path step //name taken
// from n's document.
func (n *Node) Descendants(name string) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Name == name {
			out = append(out, m)
		}
		for _, k := range m.Kids {
			if k.Name != "" {
				walk(k)
			}
		}
	}
	walk(n)
	return out
}

// Serialize writes a deep copy of n the way the engine serializes copied
// nodes: attributes in source order, childless elements self-closed.
func Serialize(sb *strings.Builder, n *Node) {
	if n.Name == "" {
		sb.WriteString(escText(n.Text))
		return
	}
	sb.WriteString("<" + n.Name)
	for _, a := range n.Attrs {
		sb.WriteString(" " + a.Name.Local + `="` + escAttr(a.Value) + `"`)
	}
	if len(n.Kids) == 0 {
		sb.WriteString("/>")
		return
	}
	sb.WriteString(">")
	for _, k := range n.Kids {
		Serialize(sb, k)
	}
	sb.WriteString("</" + n.Name + ">")
}

var (
	textEsc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEsc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

func escText(s string) string { return textEsc.Replace(s) }
func escAttr(s string) string { return attrEsc.Replace(s) }

// FormatNumber renders a decimal the way XQuery prints it: integral values
// without a fractional part, others in the shortest round-tripping form.
func FormatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// distinctValues returns the distinct string values of nodes in order of
// first occurrence (distinct-values over a document-ordered sequence).
func distinctValues(nodes []*Node) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range nodes {
		v := n.StringValue()
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Corpus holds the parsed documents by URI.
type Corpus struct {
	docs map[string]*Node
}

// New parses every document of a corpus.
func New(docs map[string][]byte) (*Corpus, error) {
	c := &Corpus{docs: make(map[string]*Node, len(docs))}
	for uri, b := range docs {
		root, err := Parse(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", uri, err)
		}
		c.docs[uri] = root
	}
	return c, nil
}

func (c *Corpus) doc(uri string) (*Node, error) {
	d := c.docs[uri]
	if d == nil {
		return nil, fmt.Errorf("oracle: no document %q", uri)
	}
	return d, nil
}

// hasChildValue reports whether some child of n named name has string
// value v (the general comparison child = v).
func hasChildValue(n *Node, name, v string) bool {
	for _, k := range n.Children(name) {
		if k.StringValue() == v {
			return true
		}
	}
	return false
}

// Q1 answers the grouping query over uri (bib.xml for Q1, dblp.xml for
// Q1-DBLP): for each distinct author, the titles of the books they wrote.
func (c *Corpus) Q1(uri string) (string, error) {
	d, err := c.doc(uri)
	if err != nil {
		return "", err
	}
	books := d.Descendants("book")
	var sb strings.Builder
	for _, a := range distinctValues(d.Descendants("author")) {
		sb.WriteString("<author><name>" + escText(a) + "</name>")
		for _, b := range books {
			if hasChildValue(b, "author", a) {
				for _, t := range b.Children("title") {
					Serialize(&sb, t)
				}
			}
		}
		sb.WriteString("</author>")
	}
	return sb.String(), nil
}

// Q2 answers the aggregation query: the minimal price per distinct title
// of prices.xml.
func (c *Corpus) Q2() (string, error) {
	d, err := c.doc("prices.xml")
	if err != nil {
		return "", err
	}
	books := d.Descendants("book")
	var titles []*Node
	for _, b := range books {
		titles = append(titles, b.Children("title")...)
	}
	var sb strings.Builder
	for _, t := range distinctValues(titles) {
		lowest, have := 0.0, false
		for _, b := range books {
			if !hasChildValue(b, "title", t) {
				continue
			}
			for _, p := range b.Children("price") {
				f, err := strconv.ParseFloat(strings.TrimSpace(p.StringValue()), 64)
				if err != nil {
					return "", fmt.Errorf("oracle: price %q: %w", p.StringValue(), err)
				}
				if !have || f < lowest {
					lowest, have = f, true
				}
			}
		}
		sb.WriteString(`<minprice title="` + escAttr(t) + `"><price>`)
		if have {
			sb.WriteString(FormatNumber(lowest))
		}
		sb.WriteString("</price></minprice>")
	}
	return sb.String(), nil
}

// Q3 answers the existential query: bib titles that have a review entry.
// A non-empty only restricts the review titles to that one value (the
// ad-hoc template's literal).
func (c *Corpus) Q3(only string) (string, error) {
	bib, err := c.doc("bib.xml")
	if err != nil {
		return "", err
	}
	rev, err := c.doc("reviews.xml")
	if err != nil {
		return "", err
	}
	reviewed := map[string]bool{}
	for _, e := range rev.Descendants("entry") {
		for _, t := range e.Children("title") {
			if v := t.StringValue(); only == "" || v == only {
				reviewed[v] = true
			}
		}
	}
	var sb strings.Builder
	for _, b := range bib.Descendants("book") {
		for _, t := range b.Children("title") {
			if reviewed[t.StringValue()] {
				sb.WriteString("<book-with-review>")
				Serialize(&sb, t)
				sb.WriteString("</book-with-review>")
			}
		}
	}
	return sb.String(), nil
}

// Q4 answers the exists query: every author of every book that has an
// author whose name contains needle ("Suciu" in the paper). The query joins
// books by value ($b1 = $b2); the generator gives every book a distinct
// title, so a book's value matches only itself.
func (c *Corpus) Q4(needle string) (string, error) {
	bib, err := c.doc("bib.xml")
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, b := range bib.Descendants("book") {
		authors := b.Children("author")
		hit := false
		for _, a := range authors {
			if strings.Contains(a.StringValue(), needle) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		for _, a := range authors {
			sb.WriteString("<book>")
			Serialize(&sb, a)
			sb.WriteString("</book>")
		}
	}
	return sb.String(), nil
}

// Q5 answers the universal query: distinct authors all of whose books carry
// a year above after (1993 in the paper).
func (c *Corpus) Q5(after float64) (string, error) {
	bib, err := c.doc("bib.xml")
	if err != nil {
		return "", err
	}
	books := bib.Descendants("book")
	var sb strings.Builder
	for _, a := range distinctValues(bib.Descendants("author")) {
		all := true
		for _, b := range books {
			if !hasChildValue(b, "author", a) {
				continue
			}
			y, ok := b.Attr("year")
			f, err := strconv.ParseFloat(strings.TrimSpace(y), 64)
			if !ok || err != nil || !(f > after) {
				all = false
				break
			}
		}
		if all {
			sb.WriteString("<new-author>" + escText(a) + "</new-author>")
		}
	}
	return sb.String(), nil
}

// Q6 answers the having-count query: distinct item numbers of bids.xml with
// at least min bids (3 in the paper).
func (c *Corpus) Q6(min int) (string, error) {
	bids, err := c.doc("bids.xml")
	if err != nil {
		return "", err
	}
	count := map[string]int{}
	for _, t := range bids.Descendants("bidtuple") {
		seen := map[string]bool{}
		for _, i := range t.Children("itemno") {
			// count($d1//bidtuple[itemno = $i1]) counts each tuple once.
			if v := i.StringValue(); !seen[v] {
				seen[v] = true
				count[v]++
			}
		}
	}
	var sb strings.Builder
	for _, i := range distinctValues(bids.Descendants("itemno")) {
		if count[i] >= min {
			sb.WriteString("<popular-item>" + escText(i) + "</popular-item>")
		}
	}
	return sb.String(), nil
}

// Quotes answers the serving workload's price lookup: the price elements of
// the prices.xml quotes for title.
func (c *Corpus) Quotes(title string) (string, error) {
	d, err := c.doc("prices.xml")
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, b := range d.Descendants("book") {
		if hasChildValue(b, "title", title) {
			for _, p := range b.Children("price") {
				Serialize(&sb, p)
			}
		}
	}
	return sb.String(), nil
}

// AuthorsOf answers the serving workload's author lookup: the authors of
// the bib books titled title, each book wrapped in one element.
func (c *Corpus) AuthorsOf(title string) (string, error) {
	bib, err := c.doc("bib.xml")
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, b := range bib.Descendants("book") {
		if !hasChildValue(b, "title", title) {
			continue
		}
		sb.WriteString("<book>")
		for _, a := range b.Children("author") {
			Serialize(&sb, a)
		}
		sb.WriteString("</book>")
	}
	return sb.String(), nil
}
