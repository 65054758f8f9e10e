package lang

import "testing"

// FuzzParseCanonical: for any input that parses, the canonical text the
// coordinator ships to workers must itself parse, and canonicalization must
// be idempotent — otherwise a distributed run evaluates a different query
// than the single node that produced the text. Minimised failures live in
// testdata/fuzz/FuzzParseCanonical.
func FuzzParseCanonical(f *testing.F) {
	for _, src := range []string{
		`extract d:Str from f if (/ROOT:{ a = ^[min=1], v = //verb, o = v/dobj, d = (o.subtree) } (a) in (d))`,
		`extract x:Entity from "blogs" if () satisfying x (str(x) contains "Cafe" {0.6}) or (x [["serves coffee"]] {0.3}) with threshold 0.5 excluding (str(x) matches "[a-z 0-9.]+")`,
		`extract e:Entity, d:Str from "moments" if (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`,
		`extract x:Entity from "tweets" if () satisfying x (x "vs" {0.9}) or ("go" x {0.9}) or (x near "a\"b\\c" {1}) with threshold 0.5`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		canon := q.Canonicalize().String()
		re, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical text does not parse: %v\ninput: %q\ncanon: %q", err, src, canon)
		}
		if again := re.Canonicalize().String(); again != canon {
			t.Fatalf("Canonicalize not idempotent:\ninput: %q\nonce:  %q\ntwice: %q", src, canon, again)
		}
	})
}
