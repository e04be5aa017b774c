package datagen

import (
	"fmt"
	"os"
	"strings"

	"re2xolap/internal/qb"
	"re2xolap/internal/store"
)

// EurostatLike mirrors the paper's Eurostat asylum-applications KG
// (Table 3: |D|=4, |M|=1, |L̄|=9, |N_D|=373): origin and destination
// countries rolling up to continents, a reference period with
// month→quarter→year and month→semester hierarchies, and a flat sex
// dimension, measured by the number of applicants. The paper's dataset
// has ~15M observations; pass the scale you can afford.
func EurostatLike(observations int) Spec {
	return Spec{
		Name: "eurostat",
		NS:   "http://data.example.org/eurostat/",
		Dimensions: []DimSpec{
			{
				Pred: "citizen", Label: "Country of Origin", Members: 120, Display: "Country",
				Children: []LevelSpec{{Pred: "inContinent", Label: "In Continent", Members: 7, Display: "Continent"}},
			},
			{
				Pred: "geo", Label: "Country of Destination", Members: 48, Display: "Country",
				Children: []LevelSpec{{Pred: "inContinent", Label: "In Continent", Members: 5, Display: "Continent"}},
			},
			{
				Pred: "refPeriod", Label: "Reference Period", Members: 120, Display: "Period",
				Children: []LevelSpec{
					{
						Pred: "inQuarter", Label: "In Quarter", Members: 40, Display: "Period",
						Children: []LevelSpec{{Pred: "inYear", Label: "In Year", Members: 10, Display: "Period"}},
					},
					{Pred: "inSemester", Label: "In Semester", Members: 20, Display: "Period"},
				},
			},
			{Pred: "sex", Label: "Sex", Members: 3},
		},
		Measures:     []MeasureSpec{{Pred: "numApplicants", Label: "Num Applicants", Scale: 250}},
		Observations: observations,
		Seed:         1,
	}
}

// ProductionLike mirrors the paper's Production KG (Table 3: |D|=7,
// |M|=1, |L̄|=9, |N_D|=6444): macro-economic production across
// countries, partner countries, industries (→ sectors), products
// (→ categories), years, flow types, and units.
func ProductionLike(observations int) Spec {
	return Spec{
		Name: "production",
		NS:   "http://data.example.org/production/",
		Dimensions: []DimSpec{
			{Pred: "country", Label: "Country", Members: 43, Display: "Country"},
			{Pred: "partner", Label: "Partner Country", Members: 43, Display: "Country"},
			{
				Pred: "industry", Label: "Industry", Members: 2000, Display: "Activity",
				Children: []LevelSpec{{Pred: "inSector", Label: "In Sector", Members: 150, Display: "Group"}},
			},
			{
				Pred: "product", Label: "Product", Members: 3900, Display: "Activity",
				Children: []LevelSpec{{Pred: "inCategory", Label: "In Category", Members: 250, Display: "Group"}},
			},
			{Pred: "year", Label: "Year", Members: 48},
			{Pred: "flowType", Label: "Flow Type", Members: 4},
			{Pred: "unit", Label: "Unit", Members: 6},
		},
		Measures:     []MeasureSpec{{Pred: "amount", Label: "Amount", Scale: 100000}},
		Observations: observations,
		Seed:         2,
	}
}

// DBpediaLike mirrors the paper's DBpedia creative-works view
// (Table 3: |D|=5, |M|=1, |L̄|=23, |N_D|=87160): songs described by
// artist, genre, label, instrument, and director, with deep and
// M-to-N hierarchies (a genre has several parent genres), which the
// paper identifies as the worst-case, most heterogeneous schema.
func DBpediaLike(observations int) Spec {
	return Spec{
		Name: "dbpedia",
		NS:   "http://data.example.org/dbpedia/",
		Dimensions: []DimSpec{
			{
				Pred: "artist", Label: "Artist", Members: 71865,
				Children: []LevelSpec{
					{
						Pred: "artistGenre", Label: "Artist Genre", Members: 800, Display: "Genre", ManyToMany: true,
						Children: []LevelSpec{{Pred: "inMovement", Label: "In Movement", Members: 50}},
					},
					{
						Pred: "fromCountry", Label: "From Country", Members: 100, Display: "Country",
						Children: []LevelSpec{{Pred: "inContinent", Label: "In Continent", Members: 7, Display: "Continent"}},
					},
					{
						Pred: "inEra", Label: "In Era", Members: 20,
						Children: []LevelSpec{{Pred: "inEraGroup", Label: "In Era Group", Members: 5}},
					},
				},
			},
			{
				Pred: "genre", Label: "Genre", Members: 900, Display: "Genre",
				Children: []LevelSpec{
					{
						Pred: "parentGenre", Label: "Parent Genre", Members: 150, ManyToMany: true,
						Children: []LevelSpec{
							{
								Pred: "rootGenre", Label: "Root Genre", Members: 20,
								Children: []LevelSpec{{Pred: "inDomain", Label: "In Domain", Members: 4}},
							},
						},
					},
				},
			},
			{
				Pred: "recordLabel", Label: "Record Label", Members: 5000,
				Children: []LevelSpec{
					{
						Pred: "labelCountry", Label: "Label Country", Members: 80, Display: "Country",
						Children: []LevelSpec{{Pred: "inContinent", Label: "In Continent", Members: 7, Display: "Continent"}},
					},
					{Pred: "parentCompany", Label: "Parent Company", Members: 500},
				},
			},
			{
				Pred: "instrument", Label: "Instrument", Members: 300,
				Children: []LevelSpec{
					{
						Pred: "inFamily", Label: "In Family", Members: 40,
						Children: []LevelSpec{
							{
								Pred: "inClass", Label: "In Class", Members: 10,
								Children: []LevelSpec{{Pred: "ofOrigin", Label: "Of Origin", Members: 5}},
							},
						},
					},
				},
			},
			{
				Pred: "director", Label: "Director", Members: 7000,
				Children: []LevelSpec{
					{
						Pred: "fromCountry", Label: "From Country", Members: 90, Display: "Country",
						Children: []LevelSpec{{Pred: "inContinent", Label: "In Continent", Members: 7, Display: "Continent"}},
					},
					{Pred: "ofSchool", Label: "Of School", Members: 200},
				},
			},
		},
		Measures:     []MeasureSpec{{Pred: "playCount", Label: "Play Count", Scale: 5000}},
		Observations: observations,
		Seed:         3,
	}
}

// Presets returns the three paper datasets at the given observation
// scales, in Table 3 order.
func Presets(eurostatObs, productionObs, dbpediaObs int) []Spec {
	return []Spec{
		EurostatLike(eurostatObs),
		ProductionLike(productionObs),
		DBpediaLike(dbpediaObs),
	}
}

// Preset returns the named paper dataset — eurostat, production or
// dbpedia — at the given observation count.
func Preset(name string, observations int) (Spec, error) {
	switch name {
	case "eurostat":
		return EurostatLike(observations), nil
	case "production":
		return ProductionLike(observations), nil
	case "dbpedia":
		return DBpediaLike(observations), nil
	}
	return Spec{}, fmt.Errorf("unknown preset %q (want eurostat, production, or dbpedia)", name)
}

// Load returns the store the commands' -data and -gen flags name: the
// N-Triples/Turtle file data (a binary snapshot when its name ends in
// .snap), or the preset gen generated with obs observations together
// with the preset's cube configuration (the zero Config for a file).
// Exactly one of data and gen must be set.
func Load(data, gen string, obs int) (*store.Store, qb.Config, error) {
	switch {
	case data != "" && gen != "":
		return nil, qb.Config{}, fmt.Errorf("-data and -gen are mutually exclusive")
	case gen != "":
		spec, err := Preset(gen, obs)
		if err != nil {
			return nil, qb.Config{}, err
		}
		st, err := spec.BuildStore()
		return st, spec.Config(), err
	case data == "":
		return nil, qb.Config{}, fmt.Errorf("one of -data or -gen is required")
	}
	f, err := os.Open(data)
	if err != nil {
		return nil, qb.Config{}, err
	}
	defer f.Close()
	var st *store.Store
	if strings.HasSuffix(data, ".snap") {
		st, err = store.ReadSnapshot(f)
	} else {
		st = store.New()
		_, err = st.Load(f)
	}
	if err != nil {
		return nil, qb.Config{}, fmt.Errorf("loading %s: %w", data, err)
	}
	return st, qb.Config{}, nil
}
