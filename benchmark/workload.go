package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strings"

	"repro/internal/sparql"
	"repro/internal/watdiv"
)

// path is the route an operation takes through the system.
type path uint8

const (
	pathMat    path = iota // in-process QueryContext, materialized scheduler
	pathStream             // in-process QueryContext, morsel executor
	pathHTTP               // serve.Server over loopback HTTP
	pathShard              // QueryContext with Dist = two loopback shard servers
	pathLoad               // N-Triples text → core.LoadNTriples
)

func (p path) String() string {
	return [...]string{"mat", "stream", "http", "shard", "load"}[p]
}

// datasetSeed fixes the WatDiv graph the four query workloads run on.
// The graph is deliberately not a function of -seed: result sizes of
// the cyclic C templates move by ±15 % to 30× between generator seeds
// (C3: 98 to 3,153 rows), which would put ±5 % of input variance on
// every allocation counter. -seed draws the template constants, the
// instance pool and the pass permutations instead; the load workload,
// whose cost is proportional to triples and not to join selectivity,
// does generate its graph from -seed.
const datasetSeed = 1

// spec describes one workload. See README.md for the reason each exists.
type spec struct {
	name      string
	path      path
	scale     int
	templates []string
	// pool is the number of instances drawn; 0 means one instance per
	// template (every op repeats a plan-cache key).
	pool    int
	clients int
	// tail is the per-template tail percentile: the highest with at
	// least ten samples beyond it at the guaranteed sample count.
	tail float64
}

var joinTemplates = []string{"C1", "C2", "C3", "F1", "F2", "F3", "F4", "F5", "E2", "E4", "E5", "E6"}

var specs = []spec{
	{name: "join-mat", path: pathMat, scale: 10000, templates: joinTemplates, clients: 1, tail: 0.90},
	{name: "join-stream", path: pathStream, scale: 10000, templates: joinTemplates, clients: 1, tail: 0.90},
	{
		name: "http-select", path: pathHTTP, scale: 10000, pool: 4096, clients: 2, tail: 0.90,
		templates: []string{"L1", "L2", "L3", "L4", "L5", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "E1", "E4"},
	},
	{
		name: "shard-2", path: pathShard, scale: 10000, clients: 1, tail: 0.90,
		templates: []string{"C1", "C2", "C3", "F1", "F2", "F3", "F4", "F5", "L2", "L5", "S1", "S6"},
	},
	// Each load answers one probe query, S1, on the store it built.
	{name: "load", path: pathLoad, scale: 4000, templates: []string{"S1"}, clients: 1, tail: 0.67},
}

// clientCount is the workload's client count, never more than the
// machine has processors.
func (s *spec) clientCount() int { return min(s.clients, runtime.NumCPU()) }

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (workloads: %s)", name, strings.Join(names, ", "))
}

// slotKind names a pool of constants in the generated data.
type slotKind uint8

const (
	slotGenre slotKind = iota
	slotCountry
	slotCity
	slotLanguage
	slotCategory
	slotRating
	slotGender
	// slotUser is popularity-skewed (follows targets are cubic-biased
	// toward low indexes), so two users are not interchangeable the way
	// two genres are. It is redrawn only where a large pool averages the
	// skew out; single-instance workloads keep the template's own user.
	slotUser
)

// slot is one constant of a template: the text it has in the
// template's source and the pool it is redrawn from.
type slot struct {
	old  string
	kind slotKind
}

// templateSlots lists every constant in the WatDiv query texts.
// Templates not listed have none.
var templateSlots = map[string][]slot{
	"F1": {{"wsdbm:Genre3", slotGenre}},
	"F2": {{"wsdbm:Country1", slotCountry}},
	"F3": {{`"male"`, slotGender}},
	"F5": {{"wsdbm:Country4", slotCountry}},
	"L1": {{"wsdbm:User3", slotUser}},
	"L2": {{"wsdbm:User7", slotUser}},
	"L3": {{"wsdbm:Language2", slotLanguage}},
	"L4": {{"wsdbm:Country8", slotCountry}},
	"S1": {{"wsdbm:Country2", slotCountry}},
	"S2": {{`"male"`, slotGender}, {"wsdbm:Country5", slotCountry}},
	"S3": {{"wsdbm:ProductCategory1", slotCategory}},
	"S4": {{`"female"`, slotGender}, {"wsdbm:City10", slotCity}},
	"S5": {{"wsdbm:ProductCategory5", slotCategory}, {"wsdbm:Language0", slotLanguage}},
	"S6": {{`"8"^^xsd:integer`, slotRating}},
	"S7": {{"wsdbm:Language1", slotLanguage}},
	"E1": {{"wsdbm:Genre3", slotGenre}},
}

func (k slotKind) draw(rng *rand.Rand, scale int) string {
	switch k {
	case slotGenre:
		return fmt.Sprintf("wsdbm:Genre%d", rng.Intn(watdiv.NumGenres))
	case slotCountry:
		return fmt.Sprintf("wsdbm:Country%d", rng.Intn(watdiv.NumCountries))
	case slotCity:
		return fmt.Sprintf("wsdbm:City%d", rng.Intn(watdiv.NumCities))
	case slotLanguage:
		return fmt.Sprintf("wsdbm:Language%d", rng.Intn(watdiv.NumLanguages))
	case slotCategory:
		return fmt.Sprintf("wsdbm:ProductCategory%d", rng.Intn(watdiv.NumCategories))
	case slotRating:
		return fmt.Sprintf(`"%d"^^xsd:integer`, 1+rng.Intn(10))
	case slotGender:
		return [...]string{`"male"`, `"female"`}[rng.Intn(2)]
	default:
		return fmt.Sprintf("wsdbm:User%d", rng.Intn(scale))
	}
}

// instance is a template with its constants filled in, plus what the
// reference evaluation said it returns.
type instance struct {
	text   string
	parsed *sparql.Query
	// req is the prebuilt GET /sparql request. A request may be reused
	// once the previous response body is closed, and every instance is
	// driven by exactly one client, so the timed loop builds nothing.
	req      *http.Request
	wantRows int
	wantHash uint64
}

// instantiate fills a template's slots. Skewed slots are redrawn only
// when pooled is true.
func instantiate(q watdiv.Query, rng *rand.Rand, scale int, pooled bool) string {
	text := q.Text
	for _, s := range templateSlots[q.Name] {
		if s.kind == slotUser && !pooled {
			continue
		}
		text = strings.Replace(text, s.old, s.kind.draw(rng, scale), 1)
	}
	return text
}

// buildPool draws the workload's instances from seed: per template,
// either one instance or an equal share of the pool. Identical seeds
// give identical pools.
func buildPool(templates []string, pool, scale int, seed int64) ([][]*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	per := 1
	if pool > 0 {
		per = (pool + len(templates) - 1) / len(templates)
	}
	out := make([][]*instance, len(templates))
	for t, name := range templates {
		q, err := watdiv.QueryByName(name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < per; i++ {
			text := instantiate(q, rng, scale, pool > 0)
			parsed, err := sparql.Parse(text)
			if err != nil {
				return nil, fmt.Errorf("template %s instance does not parse: %w", name, err)
			}
			parsed.Name = name
			out[t] = append(out[t], &instance{text: text, parsed: parsed})
		}
	}
	return out, nil
}

// attachRequests prebuilds each instance's HTTP request against base.
func attachRequests(pool [][]*instance, base string) error {
	for _, insts := range pool {
		for _, in := range insts {
			req, err := http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(in.text), nil)
			if err != nil {
				return err
			}
			in.req = req
		}
	}
	return nil
}
