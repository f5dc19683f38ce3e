package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// The /predict wire format, read and written without encoding/json.
//
// A request body is exactly one object with the one key "rows", whose
// value is an array of rows, each an array of NumFeatures cells:
//
//	{"rows":[[0.5,null,3],[1e-3,2,-0]]}
//
// A cell is a JSON number or null; null is a missing value (NaN). JSON
// whitespace may appear between any two tokens. A number must match the
// JSON grammar and is converted by strconv.ParseFloat(tok, 32), which is
// what encoding/json does for a float32 field, so a value reads to the
// same bits either way. Everything else is an error: a number out of the
// float32 range, a token the JSON grammar does not have (NaN, Infinity,
// +1, 01, 1., 0x1p3), any key but "rows" or "rows" twice, bytes after the
// object, and a row of the wrong width — a row that is too long fails at
// its (NumFeatures+1)-th cell.
//
// A response is encoding/json's encoding of
// {"req":N,"predictions":[…]} ("probabilities", one array per row, for
// multiclass) plus a newline, byte for byte; a score that is not finite
// is an error, as it is for json.Marshal.

// Buffers live in pools so a warm request allocates neither its body,
// its cells nor its response. Each pool holds pointers to slices, so
// Put does not allocate.
var (
	bodyPool = sync.Pool{New: func() any { return new([]byte) }}
	cellPool = sync.Pool{New: func() any { return new([]float32) }}
	respPool = sync.Pool{New: func() any { return new([]byte) }}
)

// readBody reads r to EOF into b's backing array, growing it as needed,
// and returns the bytes read; on a read error it returns what it had.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	b = b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// rowsKey is the request body's one key, quotes included.
var rowsKey = []byte(`"rows"`)

// decodeRows parses a /predict body (the format above) for a model of m
// features, appending the cells row-major to cells. It returns the
// extended slice and the number of rows; an empty rows array is zero
// rows, not an error. The error path allocates its message; the success
// path allocates only for a number token longer than 32 bytes.
func decodeRows(body []byte, m int, cells []float32) ([]float32, int, error) {
	const onlyRows = `only the key "rows" is allowed`
	p := rowParser{b: body}
	if !p.eat('{') {
		return cells, 0, p.fail("expected {")
	}
	if p.ws(); !bytes.HasPrefix(p.b[p.i:], rowsKey) {
		if p.peek() == '}' {
			return cells, 0, p.fail(`missing the key "rows"`)
		}
		return cells, 0, p.fail(onlyRows)
	}
	p.i += len(rowsKey)
	if !p.eat(':') {
		return cells, 0, p.fail("expected :")
	}
	cells, n, err := p.rows(m, cells)
	if err != nil {
		return cells, 0, err
	}
	if p.eat(',') {
		if p.ws(); bytes.HasPrefix(p.b[p.i:], rowsKey) {
			return cells, 0, p.fail(`duplicate key "rows"`)
		}
		return cells, 0, p.fail(onlyRows)
	}
	if !p.eat('}') {
		return cells, 0, p.fail("expected , or }")
	}
	if p.ws(); p.i != len(p.b) {
		return cells, 0, p.fail("trailing bytes after the object")
	}
	return cells, n, nil
}

// rowParser is a cursor over a request body.
type rowParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *rowParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, 0 at the end of the body.
func (p *rowParser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

// eat skips whitespace, then consumes c if it is next.
func (p *rowParser) eat(c byte) bool {
	p.ws()
	if p.peek() == c {
		p.i++
		return true
	}
	return false
}

func (p *rowParser) fail(what string) error {
	return fmt.Errorf("%s at byte %d", what, p.i)
}

// rows parses the array of rows, each exactly m cells wide.
func (p *rowParser) rows(m int, cells []float32) ([]float32, int, error) {
	if !p.eat('[') {
		return cells, 0, p.fail("rows: expected [")
	}
	if p.eat(']') {
		return cells, 0, nil
	}
	for n := 0; ; n++ {
		if !p.eat('[') {
			return cells, 0, p.fail(fmt.Sprintf("row %d: expected [", n))
		}
		width := 0
		if !p.eat(']') {
			for {
				if width == m {
					return cells, 0, fmt.Errorf("row %d has more than %d features, model expects %d", n, m, m)
				}
				v, err := p.cell()
				if err != nil {
					return cells, 0, fmt.Errorf("row %d: %w", n, err)
				}
				cells = append(cells, v)
				width++
				if p.eat(']') {
					break
				}
				if !p.eat(',') {
					return cells, 0, p.fail(fmt.Sprintf("row %d: expected , or ]", n))
				}
			}
		}
		if width != m {
			return cells, 0, fmt.Errorf("row %d has %d features, model expects %d", n, width, m)
		}
		if p.eat(']') {
			return cells, n + 1, nil
		}
		if !p.eat(',') {
			return cells, 0, p.fail("rows: expected , or ]")
		}
	}
}

// cell parses one cell: null (NaN) or a JSON number read as a float32.
func (p *rowParser) cell() (float32, error) {
	p.ws()
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += len("null")
		return float32(math.NaN()), nil
	}
	start := p.i
	if !p.number() {
		return 0, p.fail("expected a JSON number or null")
	}
	tok := p.b[start:p.i]
	f, err := strconv.ParseFloat(string(tok), 32)
	if err != nil { // the grammar is checked, so only a range error is left
		return 0, fmt.Errorf("number %s at byte %d is out of the float32 range", tok, start)
	}
	return float32(f), nil
}

// number advances over one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// there was one.
func (p *rowParser) number() bool {
	if p.peek() == '-' {
		p.i++
	}
	switch c := p.peek(); {
	case c == '0':
		p.i++
	case '1' <= c && c <= '9':
		p.digits()
	default:
		return false
	}
	if p.peek() == '.' {
		p.i++
		if !p.digits() {
			return false
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.i++
		if c := p.peek(); c == '+' || c == '-' {
			p.i++
		}
		if !p.digits() {
			return false
		}
	}
	return true
}

// digits advances over a run of decimal digits and reports whether it
// was non-empty.
func (p *rowParser) digits() bool {
	start := p.i
	for c := p.peek(); '0' <= c && c <= '9'; c = p.peek() {
		p.i++
	}
	return p.i > start
}

// errNonFinite rejects a score JSON cannot carry.
var errNonFinite = errors.New("score is not finite")

// appendResponse appends the response body for request id with scores
// out (k per row, at least one row) to b.
func appendResponse(b []byte, id uint64, out []float64, k int) ([]byte, error) {
	b = append(b, `{"req":`...)
	b = strconv.AppendUint(b, id, 10)
	if k == 1 {
		b = append(b, `,"predictions":[`...)
	} else {
		b = append(b, `,"probabilities":[[`...)
	}
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, errNonFinite
		}
		switch {
		case i == 0:
		case k > 1 && i%k == 0:
			b = append(b, "],["...)
		default:
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	if k > 1 {
		b = append(b, ']')
	}
	return append(b, "]}\n"...), nil
}

// appendFloat formats a finite float64 as encoding/json does: the
// shortest representation, in exponent form below 1e-6 and from 1e21 up
// with a one-digit negative exponent written e-7, not e-07.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
