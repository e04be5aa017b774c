// Command webui serves the browser interface for example-driven
// exploration:
//
//	webui -addr :8086 -gen eurostat -obs 20000
//	webui -addr :8086 -data dataset.nt -class http://purl.org/linked-data/cube#Observation
//	webui -addr :8086 -endpoint http://localhost:8085/sparql -class http://...#Observation
//
// Then open http://localhost:8086/.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"time"

	"re2xolap/internal/core"
	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/qb"
	"re2xolap/internal/vgraph"
	"re2xolap/internal/webui"
)

func main() {
	addr := flag.String("addr", ":8086", "listen address")
	endpointURL := flag.String("endpoint", "", "remote SPARQL endpoint URL")
	data := flag.String("data", "", "local N-Triples/Turtle file (.snap loads a binary snapshot)")
	gen := flag.String("gen", "", "generate a preset dataset: eurostat, production, dbpedia")
	obs := flag.Int("obs", 10000, "observations for -gen")
	class := flag.String("class", qb.Observation, "observation class IRI")
	flag.Parse()

	client, cfg, err := buildClient(*endpointURL, *data, *gen, *obs, *class)
	if err != nil {
		log.Fatalf("webui: %v", err)
	}
	log.Println("webui: bootstrapping virtual schema graph...")
	g, err := vgraph.Bootstrap(context.Background(), client, cfg)
	if err != nil {
		log.Fatalf("webui: bootstrap: %v", err)
	}
	stats := g.Stats()
	log.Printf("webui: ready (%d dimensions, %d levels, %d members); listening on %s",
		stats.Dimensions, stats.Levels, stats.Members, *addr)
	engine := core.NewEngine(client, g, cfg)
	srv := &http.Server{
		Addr:         *addr,
		Handler:      webui.New(engine, g),
		ReadTimeout:  time.Minute,
		WriteTimeout: 15 * time.Minute,
	}
	log.Fatal(srv.ListenAndServe())
}

func buildClient(endpointURL, data, gen string, obs int, class string) (endpoint.Client, qb.Config, error) {
	cfg := qb.Config{ObservationClass: class}
	if endpointURL != "" {
		return endpoint.NewHTTPClient(endpointURL), cfg, nil
	}
	st, genCfg, err := datagen.Load(data, gen, obs)
	if err != nil {
		return nil, cfg, err
	}
	if gen != "" {
		cfg = genCfg
	}
	return endpoint.NewInProcess(st), cfg, nil
}
