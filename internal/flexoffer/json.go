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
