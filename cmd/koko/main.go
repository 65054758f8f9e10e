// Command koko is the CLI front end of the KOKO engine: build a persisted
// index over text files, then run KOKO queries against it.
//
//	koko index -out corpus.koko doc1.txt doc2.txt ...
//	koko query -db corpus.koko -q 'extract x:Entity from f if () ...'
//	koko query -db corpus.koko -f query.koko
//	koko stats -db corpus.koko
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/server"
	"repro/koko"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "index":
		err = cmdIndex(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "koko:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  koko index -out <file.koko> <doc.txt>...   parse and index documents
  koko query -db <file.koko> (-q <query> | -f <query-file>)
  koko stats -db <file.koko>                 print index statistics`)
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	out := fs.String("out", "corpus.koko", "output index file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("no input documents")
	}
	var names, texts []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		names = append(names, filepath.Base(f))
		texts = append(texts, string(data))
	}
	eng := koko.NewEngine(koko.NewCorpus(names, texts), nil)
	if err := eng.Save(*out); err != nil {
		return err
	}
	st := eng.Stats()
	fmt.Printf("indexed %d documents -> %s\n", len(files), *out)
	fmt.Printf("words=%d entities=%d pl-nodes=%d pos-nodes=%d pl-compression=%.4f\n",
		st.Words, st.Entities, st.PLNodes, st.POSNodes, st.PLCompression)
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	db := fs.String("db", "corpus.koko", "index file written by 'koko index'")
	q := fs.String("q", "", "KOKO query text")
	qf := fs.String("f", "", "file containing the KOKO query")
	explain := fs.Bool("explain", false, "print per-condition evidence for every tuple")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src := *q
	if src == "" && *qf != "" {
		data, err := os.ReadFile(*qf)
		if err != nil {
			return err
		}
		src = string(data)
	}
	if src == "" {
		return fmt.Errorf("provide a query with -q or -f")
	}
	// One-shot CLI runs share the kokod registry/service path (no result
	// cache: every invocation is fresh).
	svc := server.NewService(server.Config{MaxConcurrent: 1, CacheSize: -1})
	if err := svc.Registry().LoadFile("", *db); err != nil {
		return err
	}
	res, err := svc.Query(context.Background(), server.QueryRequest{
		Corpus:  server.DefaultName(*db),
		Query:   src,
		Explain: *explain,
	})
	if err != nil {
		return err
	}
	for _, t := range res.Tuples {
		fmt.Printf("sid=%d\t%v", t.SentenceID, t.Values)
		if len(t.Scores) > 0 {
			fmt.Printf("\t%v", t.Scores)
		}
		fmt.Println()
		for _, ev := range t.Evidence {
			fmt.Printf("    %-40s weight=%.2f conf=%.3f -> %.3f\n",
				ev.Condition, ev.Weight, ev.Confidence, ev.Contribution)
		}
	}
	fmt.Printf("-- %d tuples, %d candidate sentences, %d matched, %.3fms\n",
		len(res.Tuples), res.Candidates, res.Matched, res.Phases.Total)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	db := fs.String("db", "corpus.koko", "index file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := server.NewRegistry(nil)
	if err := reg.LoadFile("", *db); err != nil {
		return err
	}
	info, st, _, err := reg.Describe(server.DefaultName(*db))
	if err != nil {
		return err
	}
	fmt.Printf("corpus=%s documents=%d sentences=%d\n", info.Name, info.Documents, info.Sentences)
	fmt.Printf("words=%d entities=%d pl-nodes=%d pos-nodes=%d\n", st.Words, st.Entities, st.PLNodes, st.POSNodes)
	fmt.Printf("pl-compression=%.4f pos-compression=%.4f\n", st.PLCompression, st.POSCompression)
	return nil
}
