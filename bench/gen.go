package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"asterixdb/internal/adm"
	"asterixdb/internal/workload"
)

// ddl is the Mugshot schema of cmd/asterixbench with the three secondary
// index kinds the lookup classes probe: a B+-tree on timestamp, an R-tree on
// sender-location and a keyword inverted index on message.
const ddl = `
create type EmploymentType as open { organization-name: string, start-date: date, end-date: date? }
create type MugshotUserType as {
  id: int32, alias: string, name: string, user-since: datetime,
  address: { street: string, city: string, state: string, zip: string, country: string },
  friend-ids: {{ int32 }}, employment: [EmploymentType]
}
create type MugshotMessageType as closed {
  message-id: int32, author-id: int32, timestamp: datetime, in-response-to: int32?,
  sender-location: point?, tags: {{ string }}, message: string
}
create dataset MugshotUsers(MugshotUserType) primary key id;
create dataset MugshotMessages(MugshotMessageType) primary key message-id;
create index msTimestampIdx on MugshotMessages(timestamp);
create index msSenderLocIdx on MugshotMessages(sender-location) type rtree;
create index msMessageIdx on MugshotMessages(message) type keyword;
`

// Statement classes. The lookup classes are served by an index (pk by a full
// scan today: there is no primary-key access path), the analytics classes by
// scans, and insert is the write path.
const (
	classPK      = "pk"
	classRange   = "range"
	classSpatial = "spatial"
	classText    = "text"
	classFilter  = "filter"
	classGroupBy = "groupby"
	classJoin    = "join"
	classTopK    = "topk"
	classInsert  = "insert"
)

// Selectivities every statement of a class holds, whatever its literals.
const (
	rangeRows    = 100 // messages in a range window
	spatialRows  = 35  // messages in a spatial rectangle, within spatialSlack
	spatialSlack = 2
	rowsPerToken = 10 // messages sharing one rare token
	topKRows     = 10
	insertBatch  = 20  // records per measured insert statement
	loadBatch    = 500 // records per preload insert statement
	joinFraction = 4   // the join keeps 1/joinFraction of the authors
	// keySpace bounds the ids insert streams hand out; keyMult is odd, so
	// k -> k*keyMult mod keySpace visits every id once, in shuffled order.
	keySpace = 1 << 24
	keyMult  = 11400714819323198485 % keySpace
	// spreadMult scatters Zipf ranks over an item domain so popular items are
	// not neighbours in key order.
	spreadMult = 7919
	zipfS      = 1.1
)

// Location domain of workload.Generator.Message.
const locX0, locY0, locSpan = 20.0, 70.0, 30.0

// scale sizes the generated data. Messages must be a multiple of Users,
// rowsPerToken and joinFraction so every class's selectivity is exact.
type scale struct {
	Users, Messages int
}

var fullScale = scale{Users: 2000, Messages: 20000}

// data is one seed's generated dataset plus what the oracle needs to predict
// every statement's result without asking the server.
type data struct {
	seed int64
	sc   scale
	gen  *workload.Generator

	tsBase, tsStep int64     // timestamp(id) = tsBase + id*tsStep
	xs, ys         []float64 // sender-location of message id (index 0 unused)
	lens           []int32   // string-length(message) of message id
	cells          [][]int32 // message ids bucketed by 1x1 location cell
	byLen          []int32   // preloaded ids ordered by (length desc, id asc)
	tokenIDs       [][]int32 // rare token -> preloaded ids carrying it
}

func newData(seed int64, sc scale) *data {
	n := sc.Messages
	if sc.Users <= 0 || n%sc.Users != 0 || n%rowsPerToken != 0 || sc.Users%joinFraction != 0 || n <= rangeRows {
		panic(fmt.Sprintf("bench: scale %+v breaks the exact-selectivity rules", sc))
	}
	d := &data{
		seed: seed,
		sc:   sc,
		// workload.New treats seed 0 as "default"; keep every seed distinct.
		gen:      workload.New(workload.Config{Users: sc.Users, Messages: n, Seed: seed*2 + 1}),
		xs:       make([]float64, n+1),
		ys:       make([]float64, n+1),
		lens:     make([]int32, n+1),
		cells:    make([][]int32, int(locSpan*locSpan)),
		byLen:    make([]int32, n),
		tokenIDs: make([][]int32, n/rowsPerToken),
	}
	t1 := int64(d.gen.Message(1).Get("timestamp").(adm.Datetime))
	t2 := int64(d.gen.Message(2).Get("timestamp").(adm.Datetime))
	d.tsStep = t2 - t1
	d.tsBase = t1 - d.tsStep
	for id := 1; id <= n; id++ {
		rec := d.message(id)
		p := rec.Get("sender-location").(adm.Point)
		d.xs[id], d.ys[id] = p.X, p.Y
		d.lens[id] = int32(len(rec.Get("message").(adm.String)))
		c := d.cell(p.X, p.Y)
		d.cells[c] = append(d.cells[c], int32(id))
		d.byLen[id-1] = int32(id)
		t := d.tokenIndex(id)
		d.tokenIDs[t] = append(d.tokenIDs[t], int32(id))
	}
	sort.SliceStable(d.byLen, func(i, j int) bool { return d.lens[d.byLen[i]] > d.lens[d.byLen[j]] })
	return d
}

// cellCoord maps a coordinate offset into its 1-unit cell, clamped to the
// location domain.
func cellCoord(offset float64) int { return min(max(int(offset), 0), int(locSpan)-1) }

func (d *data) cell(x, y float64) int {
	return cellCoord(y-locY0)*int(locSpan) + cellCoord(x-locX0)
}

// author spreads messages over users exactly evenly: every user wrote
// Messages/Users of the preloaded messages.
func (d *data) author(id int) int { return (id-1)%d.sc.Users + 1 }

func (d *data) tokenIndex(id int) int {
	return int((int64(id)*spreadMult + d.seed) % int64(len(d.tokenIDs)))
}

// token is the rare word appended to a message. Preloaded messages share one
// with rowsPerToken-1 others, so a keyword probe is selective (the stock
// 20-word vocabulary makes every probe match a third of the dataset);
// inserted messages get a token of their own and never change a probe's
// answer.
func (d *data) token(id int) string {
	if id > d.sc.Messages {
		return "n" + strconv.Itoa(id)
	}
	return fmt.Sprintf("w%05d", d.tokenIndex(id))
}

func (d *data) timestamp(id int) adm.Datetime { return adm.Datetime(d.tsBase + int64(id)*d.tsStep) }

// message is the record with the given id: the internal/workload shape with a
// deterministic author and a rare token. Ids past sc.Messages are the records
// insert statements carry; their timestamps lie after every preloaded one.
func (d *data) message(id int) *adm.Record {
	rec := d.gen.Message(id)
	text := string(rec.Get("message").(adm.String)) + " " + d.token(id)
	return rec.Set("author-id", adm.Int32(d.author(id))).Set("message", adm.String(text))
}

// insertStatement renders one AQL insert of the given records and returns it
// with the bytes of record literals it carries (the "user bytes").
func insertStatement(dataset string, recs []*adm.Record) (string, int) {
	var sb strings.Builder
	sb.WriteString("insert into dataset ")
	sb.WriteString(dataset)
	sb.WriteString(" ([")
	userBytes := 0
	for i, r := range recs {
		if i > 0 {
			sb.WriteString(",\n")
		}
		lit := r.String()
		userBytes += len(lit)
		sb.WriteString(lit)
	}
	sb.WriteString("]);")
	return sb.String(), userBytes
}

// load is what set-up sends after the DDL.
type load struct {
	stmts     []string
	userBytes int64 // bytes of the record literals in stmts
}

// preload returns the insert statements that load the users and, when
// messages is set, the messages.
func (d *data) preload(messages bool) load {
	var stmts []string
	userBytes := 0
	batch := func(dataset string, n int, rec func(int) *adm.Record) {
		for lo := 1; lo <= n; lo += loadBatch {
			hi := min(lo+loadBatch-1, n)
			recs := make([]*adm.Record, 0, hi-lo+1)
			for id := lo; id <= hi; id++ {
				recs = append(recs, rec(id))
			}
			s, b := insertStatement(dataset, recs)
			stmts = append(stmts, s)
			userBytes += b
		}
	}
	batch("MugshotUsers", d.sc.Users, d.gen.User)
	if messages {
		batch("MugshotMessages", d.sc.Messages, d.message)
	}
	return load{stmts: stmts, userBytes: int64(userBytes)}
}

// idsInRect lists the preloaded messages whose location lies in the rectangle.
func (d *data) idsInRect(x1, y1, x2, y2 float64) []int32 {
	var ids []int32
	for cy := cellCoord(y1 - locY0); cy <= cellCoord(y2-locY0); cy++ {
		for cx := cellCoord(x1 - locX0); cx <= cellCoord(x2-locX0); cx++ {
			for _, id := range d.cells[cy*int(locSpan)+cx] {
				if x, y := d.xs[id], d.ys[id]; x >= x1 && x <= x2 && y >= y1 && y <= y2 {
					ids = append(ids, id)
				}
			}
		}
	}
	return ids
}

// expect is the oracle's prediction for one statement.
type expect struct {
	rows int     // result rows; records stored, for an insert
	sum  int64   // sum over the rows of the class's key field
	ids  []int32 // the exact ordered result (topk only)
}

// stmt is one generated statement with its predicted result.
type stmt struct {
	class     string
	text      string
	want      expect
	userBytes int // insert only
}

// keyField names the JSON field of a result row that carries the value the
// oracle sums; classes that return a bare integer per row have none.
var keyField = map[string]string{
	classPK: "message-id", classRange: "message-id",
	classFilter: "id", classGroupBy: "n", classJoin: "m",
}

// stream generates one client's statements. Streams of the same (seed,
// client) are byte-identical; two clients of one run never insert the same
// key.
type stream struct {
	d       *data
	rng     *rand.Rand
	zipf    *rand.Zipf
	client  uint64
	clients uint64
	inserts uint64 // insert statements generated so far
}

func (d *data) newStream(client, clients int) *stream {
	rng := rand.New(rand.NewSource(d.seed*1000003 + int64(client)*7907 + 1))
	return &stream{d: d, rng: rng, client: uint64(client), clients: uint64(clients),
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(d.sc.Messages-1))}
}

// pick draws one of n items with Zipf(1.1) popularity.
func (s *stream) pick(n int) int {
	return int(s.zipf.Uint64() * spreadMult % uint64(n))
}

func (s *stream) next(class string) stmt {
	d := s.d
	n, users := d.sc.Messages, d.sc.Users
	switch class {
	case classPK:
		id := 1 + s.pick(n)
		return stmt{class: class, want: expect{rows: 1, sum: int64(id)},
			text: fmt.Sprintf(`for $m in dataset MugshotMessages where $m.message-id = %d return $m;`, id)}
	case classRange:
		lo := 1 + s.pick(n-rangeRows)
		want := expect{rows: rangeRows}
		for id := lo; id < lo+rangeRows; id++ {
			want.sum += int64(id)
		}
		return stmt{class: class, want: want,
			text: fmt.Sprintf(`for $m in dataset MugshotMessages where $m.timestamp >= %s and $m.timestamp < %s return $m;`,
				d.timestamp(lo), d.timestamp(lo+rangeRows))}
	case classSpatial:
		return s.spatial()
	case classText:
		t := s.pick(len(d.tokenIDs))
		return stmt{class: class, want: expectIDs(d.tokenIDs[t]),
			text: fmt.Sprintf(`for $m in dataset MugshotMessages where some $w in word-tokens($m.message) satisfies $w = "w%05d" return $m.message-id;`, t)}
	case classFilter:
		a := 1 + s.pick(users)
		want := expect{rows: n / users}
		for id := a; id <= n; id += users {
			want.sum += int64(id)
		}
		return stmt{class: class, want: want,
			text: fmt.Sprintf(`for $m in dataset MugshotMessages where $m.author-id = %d return { "id": $m.message-id, "len": string-length($m.message) };`, a)}
	case classGroupBy:
		// The lower bound varies the statement while dropping under 1% of
		// the rows and no group.
		from := 1 + s.rng.Intn(n/100)
		return stmt{class: class, want: expect{rows: users, sum: int64(n - from + 1)},
			text: fmt.Sprintf(`for $m in dataset MugshotMessages where $m.message-id >= %d group by $a := $m.author-id with $m return { "a": $a, "n": count($m) };`, from)}
	case classJoin:
		span := users / joinFraction
		a := 1 + s.rng.Intn(users-span+1)
		want := expect{rows: span * (n / users)}
		for id := 1; id <= n; id++ {
			if au := d.author(id); au >= a && au < a+span {
				want.sum += int64(id)
			}
		}
		return stmt{class: class, want: want,
			text: fmt.Sprintf(`for $u in dataset MugshotUsers for $m in dataset MugshotMessages where $m.author-id = $u.id and $m.author-id >= %d and $m.author-id < %d return { "u": $u.name, "m": $m.message-id };`, a, a+span)}
	case classTopK:
		from := 1 + s.rng.Intn(n/100)
		want := expect{rows: topKRows}
		for _, id := range d.byLen {
			if int(id) >= from {
				want.ids = append(want.ids, id)
				want.sum += int64(id)
				if len(want.ids) == topKRows {
					break
				}
			}
		}
		return stmt{class: class, want: want,
			text: fmt.Sprintf(`for $m in dataset MugshotMessages where $m.message-id >= %d order by string-length($m.message) desc, $m.message-id limit %d return $m.message-id;`, from, topKRows)}
	case classInsert:
		recs := make([]*adm.Record, insertBatch)
		for i := range recs {
			k := (s.inserts*insertBatch+uint64(i))*s.clients + s.client
			if k >= keySpace {
				panic("bench: insert stream exhausted its key space")
			}
			recs[i] = d.message(n + 1 + int(k*keyMult%keySpace))
		}
		s.inserts++
		text, userBytes := insertStatement("MugshotMessages", recs)
		return stmt{class: class, text: text, userBytes: userBytes, want: expect{rows: insertBatch}}
	}
	panic("bench: unknown statement class " + class)
}

func expectIDs(ids []int32) expect {
	want := expect{rows: len(ids)}
	for _, id := range ids {
		want.sum += int64(id)
	}
	return want
}

// rect centres a rectangle on a popular message and resizes it until it holds
// spatialRows±spatialSlack messages, so the spatial class keeps its
// selectivity in dense and sparse regions and at the domain's edge.
func (s *stream) rect() (x1, y1, x2, y2 float64, ids []int32) {
	d := s.d
	density := float64(d.sc.Messages) / (locSpan * locSpan)
	for {
		c := 1 + s.pick(d.sc.Messages)
		side := math.Sqrt(spatialRows / density)
		for try := 0; try < 8; try++ {
			x1, y1 = round6(d.xs[c]-side/2), round6(d.ys[c]-side/2)
			x2, y2 = round6(d.xs[c]+side/2), round6(d.ys[c]+side/2)
			ids = d.idsInRect(x1, y1, x2, y2)
			if len(ids) >= spatialRows-spatialSlack && len(ids) <= spatialRows+spatialSlack {
				return x1, y1, x2, y2, ids
			}
			side *= math.Sqrt(spatialRows / float64(max(len(ids), 1)))
		}
	}
}

func (s *stream) spatial() stmt {
	x1, y1, x2, y2, ids := s.rect()
	return stmt{class: classSpatial, want: expectIDs(ids),
		text: fmt.Sprintf(`for $m in dataset MugshotMessages where spatial-intersect($m.sender-location, create-rectangle(create-point(%.6f, %.6f), create-point(%.6f, %.6f))) return $m.message-id;`, x1, y1, x2, y2)}
}

// round6 rounds to the six decimals a statement prints, so the oracle and the
// server see the same rectangle.
func round6(f float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(f, 'f', 6, 64), 64)
	return r
}

// checkRows compares an NDJSON query result with the oracle's prediction.
func checkRows(class string, body []byte, want expect) error {
	key := keyField[class]
	var marker []byte
	if key != "" {
		marker = []byte(`"` + key + `":`)
	}
	rows, sum := 0, int64(0)
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, []byte(`{"error":`)) {
			return fmt.Errorf("%s: server error row %s", class, line)
		}
		num := line
		if marker != nil {
			i := bytes.Index(line, marker)
			if i < 0 {
				return fmt.Errorf("%s: row %d has no %q field: %.120s", class, rows, key, line)
			}
			num = line[i+len(marker):]
		}
		v, ok := leadingInt(num)
		if !ok {
			return fmt.Errorf("%s: row %d is not an integer: %.120s", class, rows, line)
		}
		if want.ids != nil && (rows >= len(want.ids) || int64(want.ids[rows]) != v) {
			return fmt.Errorf("%s: row %d is %d, want ids %v", class, rows, v, want.ids)
		}
		rows++
		sum += v
	}
	if rows != want.rows || sum != want.sum {
		return fmt.Errorf("%s: got %d rows with key sum %d, want %d rows with sum %d", class, rows, sum, want.rows, want.sum)
	}
	return nil
}

// leadingInt parses the decimal integer b starts with (after spaces).
func leadingInt(b []byte) (int64, bool) {
	b = bytes.TrimLeft(b, " ")
	end := 0
	for end < len(b) && (b[end] == '-' || (b[end] >= '0' && b[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseInt(string(b[:end]), 10, 64)
	return v, err == nil
}
