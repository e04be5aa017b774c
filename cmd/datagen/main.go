// Command datagen writes one of the synthetic benchmark datasets as
// N-Triples:
//
//	datagen -dataset eurostat -obs 50000 -o eurostat.nt
//
// The datasets mirror the schema statistics of the paper's Table 3;
// see internal/datagen for the specs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"re2xolap/internal/datagen"
)

func main() {
	dataset := flag.String("dataset", "eurostat", "preset: eurostat, production, dbpedia")
	obs := flag.Int("obs", 10000, "number of observations")
	out := flag.String("o", "-", "output file ('-' for stdout)")
	format := flag.String("format", "nt", "output format: nt (N-Triples) or snapshot (binary store image)")
	seed := flag.Int64("seed", 0, "override the preset's RNG seed (0 keeps it; same preset+obs+seed = same bytes)")
	flag.Parse()

	spec, err := datagen.Preset(*dataset, *obs)
	if err != nil {
		log.Fatalf("datagen: %v", err)
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("datagen: %v", err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	switch *format {
	case "nt":
		if err := spec.Write(bw); err != nil {
			log.Fatalf("datagen: %v", err)
		}
	case "snapshot":
		st, err := spec.BuildStore()
		if err != nil {
			log.Fatalf("datagen: %v", err)
		}
		if err := st.WriteSnapshot(bw); err != nil {
			log.Fatalf("datagen: %v", err)
		}
	default:
		log.Fatalf("datagen: unknown format %q", *format)
	}
	if err := bw.Flush(); err != nil {
		log.Fatalf("datagen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %s (%d observations, %d members over %d levels)\n",
		spec.Name, spec.Observations, spec.MemberTotal(), spec.LevelTotal())
}
