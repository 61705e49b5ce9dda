package flexoffer

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
)

// AppendJSON appends the offer's JSON encoding to buf and returns the
// extended buffer: exactly the bytes json.Marshal(f) returns, or the
// error it returns. A nil offer appends null.
//
// The common values are written directly: plain strings, times that
// Time.MarshalJSON accepts, durations as integers and finite floats the
// way encoding/json writes them. Any other value (a string that needs
// escaping, NaN, ±Inf, a time outside years 0000–9999 or with a zone
// offset of 24 hours or more) goes to json.Marshal of that value, so it
// is escaped, or fails, exactly as the whole offer would. On that fast
// path AppendJSON allocates nothing when buf has room. FuzzOfferJSON
// holds it to json.Marshal.
func (f *FlexOffer) AppendJSON(buf []byte) ([]byte, error) {
	if f == nil {
		return append(buf, "null"...), nil
	}
	var err error
	buf = append(buf, `{"id":`...)
	if buf, err = appendJSONString(buf, f.ID); err != nil {
		return nil, err
	}
	if f.ConsumerID != "" {
		buf = append(buf, `,"consumer_id":`...)
		if buf, err = appendJSONString(buf, f.ConsumerID); err != nil {
			return nil, err
		}
	}
	if f.Appliance != "" {
		buf = append(buf, `,"appliance":`...)
		if buf, err = appendJSONString(buf, f.Appliance); err != nil {
			return nil, err
		}
	}
	for _, t := range [...]struct {
		key string
		at  time.Time
	}{
		{`,"creation_time":`, f.CreationTime},
		{`,"acceptance_time":`, f.AcceptanceTime},
		{`,"assignment_time":`, f.AssignmentTime},
		{`,"earliest_start":`, f.EarliestStart},
		{`,"latest_start":`, f.LatestStart},
	} {
		buf = append(buf, t.key...)
		if buf, err = AppendJSONTime(buf, t.at); err != nil {
			return nil, err
		}
	}
	buf = append(buf, `,"profile":`...)
	if f.Profile == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, s := range f.Profile {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"duration":`...)
			buf = strconv.AppendInt(buf, int64(s.Duration), 10)
			buf = append(buf, `,"min_energy_kwh":`...)
			if buf, err = AppendJSONFloat(buf, s.MinEnergy); err != nil {
				return nil, err
			}
			buf = append(buf, `,"max_energy_kwh":`...)
			if buf, err = AppendJSONFloat(buf, s.MaxEnergy); err != nil {
				return nil, err
			}
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	if c := f.TotalConstraint; c != nil {
		buf = append(buf, `,"total_constraint":{"min_kwh":`...)
		if buf, err = AppendJSONFloat(buf, c.Min); err != nil {
			return nil, err
		}
		buf = append(buf, `,"max_kwh":`...)
		if buf, err = AppendJSONFloat(buf, c.Max); err != nil {
			return nil, err
		}
		buf = append(buf, '}')
	}
	return append(buf, '}'), nil
}

// AppendJSONTime appends t as json.Marshal writes it: quoted RFC 3339
// with nanoseconds. A time Time.MarshalJSON refuses (a year outside
// 0000–9999, a zone offset of 24 hours or more) goes to json.Marshal,
// which returns its error.
func AppendJSONTime(buf []byte, t time.Time) ([]byte, error) {
	if y := t.Year(); 0 <= y && y <= 9999 {
		if _, off := t.Zone(); -24*60*60 < off && off < 24*60*60 {
			buf = append(buf, '"')
			buf = t.AppendFormat(buf, time.RFC3339Nano)
			return append(buf, '"'), nil
		}
	}
	return appendMarshal(buf, t)
}

// AppendJSONFloat appends v as encoding/json's float64 encoder writes it:
// the shortest 'f' form, or the 'e' form below 1e-6 and from 1e21 with a
// one-digit negative exponent unpadded (1e-7, not 1e-07). NaN and ±Inf go
// to json.Marshal, which returns its error.
func AppendJSONFloat(buf []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return appendMarshal(buf, v)
	}
	format := byte('f')
	if abs := math.Abs(v); (0 < abs && abs < 1e-6) || abs >= 1e21 {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, v, format, -1, 64)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf, nil
}

// appendJSONString appends s quoted when it is printable ASCII that
// encoding/json writes unescaped; any other string goes to json.Marshal,
// which escapes it.
func appendJSONString(buf []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendMarshal(buf, s)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"'), nil
}

// appendMarshal appends json.Marshal(v), or returns its error.
func appendMarshal(buf []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(buf, b...), nil
}

// CutJSON decodes the offer at the front of data, in the one shape
// AppendJSON writes, and returns it with the bytes after it. ok is false
// when data does not start with that shape; the caller then decodes with
// json.Unmarshal, the reference, so no other shape is ever misread. It
// accepts:
//   - the keys in AppendJSON's order, with consumer_id, appliance and
//     total_constraint optional and a profile that is null or an array,
//     and no whitespace;
//   - strings of printable ASCII without '"' or '\', which JSON leaves as
//     they are;
//   - times that (*time.Time).UnmarshalText parses: the strict RFC 3339
//     parser Time.UnmarshalJSON uses;
//   - numbers that match JSON's grammar, then parsed by strconv.ParseInt
//     (durations) or strconv.ParseFloat, the calls encoding/json makes.
//
// Within that shape it decodes exactly what json.Unmarshal does. Strings
// are copied out of data, and the profile is allocated once, at its
// length. FuzzDecodeEvent (internal/market) holds it to json.Unmarshal.
func CutJSON(data []byte) (f *FlexOffer, rest []byte, ok bool) {
	c := jsonCursor{data: data, ok: true}
	f = new(FlexOffer)
	c.lit(`{"id":`)
	f.ID = c.str()
	if c.skip(`,"consumer_id":`) {
		f.ConsumerID = c.str()
	}
	if c.skip(`,"appliance":`) {
		f.Appliance = c.str()
	}
	for _, t := range [...]struct {
		key string
		at  *time.Time
	}{
		{`,"creation_time":`, &f.CreationTime},
		{`,"acceptance_time":`, &f.AcceptanceTime},
		{`,"assignment_time":`, &f.AssignmentTime},
		{`,"earliest_start":`, &f.EarliestStart},
		{`,"latest_start":`, &f.LatestStart},
	} {
		c.lit(t.key)
		*t.at = c.time()
	}
	c.lit(`,"profile":`)
	if !c.skip("null") {
		f.Profile = c.profile()
	}
	if c.skip(`,"total_constraint":{"min_kwh":`) {
		tc := new(EnergyConstraint)
		tc.Min = c.float()
		c.lit(`,"max_kwh":`)
		tc.Max = c.float()
		c.lit("}")
		f.TotalConstraint = tc
	}
	c.lit("}")
	if !c.ok {
		return nil, nil, false
	}
	return f, c.data, true
}

// CutJSONTime decodes the quoted time at the front of data as
// Time.UnmarshalJSON decodes it, and returns it with the bytes after it.
// ok is false for anything CutJSON would not accept as a time, null
// included.
func CutJSONTime(data []byte) (t time.Time, rest []byte, ok bool) {
	c := jsonCursor{data: data, ok: true}
	t = c.time()
	return t, c.data, c.ok
}

// jsonCursor walks encoded bytes for CutJSON. The first mismatch clears
// ok, and every later step is then a no-op that returns a zero value.
type jsonCursor struct {
	data []byte
	ok   bool
}

// skip consumes s when the bytes start with it, and reports whether they
// did.
func (c *jsonCursor) skip(s string) bool {
	if !c.ok || len(c.data) < len(s) || string(c.data[:len(s)]) != s {
		return false
	}
	c.data = c.data[len(s):]
	return true
}

// lit consumes s, which must come next.
func (c *jsonCursor) lit(s string) {
	if !c.skip(s) {
		c.ok = false
	}
}

// quoted consumes a string of printable ASCII without '"' or '\' and
// returns its contents, which alias the input.
func (c *jsonCursor) quoted() []byte {
	if !c.ok || len(c.data) == 0 || c.data[0] != '"' {
		c.ok = false
		return nil
	}
	for i := 1; i < len(c.data); i++ {
		switch b := c.data[i]; {
		case b == '"':
			s := c.data[1:i]
			c.data = c.data[i+1:]
			return s
		case b < 0x20 || b > 0x7e || b == '\\':
			c.ok = false
			return nil
		}
	}
	c.ok = false
	return nil
}

// str consumes a string and returns a copy of it.
func (c *jsonCursor) str() string { return string(c.quoted()) }

// time consumes a quoted strict RFC 3339 time.
func (c *jsonCursor) time() (t time.Time) {
	if s := c.quoted(); c.ok && t.UnmarshalText(s) != nil {
		c.ok = false
	}
	return t
}

// number consumes a number that matches JSON's grammar and returns its
// bytes: an optional minus, an integer part without leading zeros, then
// an optional fraction and exponent.
func (c *jsonCursor) number() []byte {
	if !c.ok {
		return nil
	}
	d := c.data
	i := 0
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i+1)
	default:
		c.ok = false
		return nil
	}
	if i < len(d) && d[i] == '.' {
		j := skipDigits(d, i+1)
		if j == i+1 {
			c.ok = false
			return nil
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := skipDigits(d, i)
		if j == i {
			c.ok = false
			return nil
		}
		i = j
	}
	c.data = d[i:]
	return d[:i]
}

// skipDigits returns the index of the first non-digit in d at or after i.
func skipDigits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// float consumes a number and parses it as encoding/json parses a
// float64.
func (c *jsonCursor) float() float64 {
	num := c.number()
	if !c.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		c.ok = false
	}
	return v
}

// int consumes a number and parses it as encoding/json parses an int64.
func (c *jsonCursor) int() int64 {
	num := c.number()
	if !c.ok {
		return 0
	}
	v, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		c.ok = false
	}
	return v
}

// profile consumes a profile array. Each slice object holds only
// numbers, so every '{' before the first ']' opens one: counting them
// sizes the profile before it is decoded.
func (c *jsonCursor) profile() []Slice {
	c.lit("[")
	if !c.ok {
		return nil
	}
	n := 0
	for _, b := range c.data {
		if b == ']' {
			break
		}
		if b == '{' {
			n++
		}
	}
	p := make([]Slice, n)
	for i := range p {
		if i > 0 {
			c.lit(",")
		}
		c.lit(`{"duration":`)
		p[i].Duration = time.Duration(c.int())
		c.lit(`,"min_energy_kwh":`)
		p[i].MinEnergy = c.float()
		c.lit(`,"max_energy_kwh":`)
		p[i].MaxEnergy = c.float()
		c.lit("}")
		if !c.ok {
			return nil
		}
	}
	c.lit("]")
	return p
}
