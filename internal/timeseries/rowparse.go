package timeseries

import (
	"math"
	"math/bits"
	"time"
)

// ReadCSV's fast row path. WriteCSV writes a row of a series on the
// whole-second grid as "YYYY-MM-DDTHH:MM:SSZ,<value>", the value from
// strconv.FormatFloat(v, 'f', -1, 64) or empty when missing. parseRow
// reads exactly that shape with integer arithmetic and declines every
// other row; what it accepts, it returns bitwise as time.Parse and
// strconv.ParseFloat would (ReadCSV's doc names the tests that check it).

// stampLen is the width of the one timestamp shape parseStamp reads.
const stampLen = len("2006-01-02T15:04:05Z")

// parseRow parses a data row of the shape WriteCSV writes. It reports
// false for any other row, including one with a second comma.
func parseRow(line string) (time.Time, float64, bool) {
	if len(line) <= stampLen || line[stampLen] != ',' {
		return time.Time{}, 0, false
	}
	ts, ok := parseStamp(line[:stampLen])
	if !ok {
		return time.Time{}, 0, false
	}
	v := math.NaN()
	if value := line[stampLen+1:]; value != "" {
		if v, ok = parseValue(value); !ok {
			return time.Time{}, 0, false
		}
	}
	return ts, v, true
}

// parseStamp parses s when it is exactly "YYYY-MM-DDTHH:MM:SSZ" with the
// field ranges time.Parse checks: month 1-12, the day within its month
// (Gregorian leap years, year 0000 among them), hour 0-23, minute and
// second 0-59. Offsets, fractional seconds, a lower-case 'z' and any
// other input report false.
func parseStamp(s string) (time.Time, bool) {
	if len(s) != stampLen || s[4] != '-' || s[7] != '-' || s[10] != 'T' || s[13] != ':' || s[16] != ':' || s[19] != 'Z' {
		return time.Time{}, false
	}
	century, year := twoDigits(s, 0), twoDigits(s, 2)
	month, day := twoDigits(s, 5), twoDigits(s, 8)
	hour, min, sec := twoDigits(s, 11), twoDigits(s, 14), twoDigits(s, 17)
	if century < 0 || year < 0 || month < 1 || month > 12 || day < 1 || hour < 0 || hour > 23 || min < 0 || min > 59 || sec < 0 || sec > 59 {
		return time.Time{}, false
	}
	year += 100 * century
	if day > daysIn(month, year) {
		return time.Time{}, false
	}
	unix := daysFromCivil(year, month, day)*86400 + int64(hour*3600+min*60+sec)
	return time.Unix(unix, 0).UTC(), true
}

// twoDigits returns the number the two decimal digits at s[i:i+2] spell,
// or -1 when either byte is not a digit.
func twoDigits(s string, i int) int {
	hi, lo := uint(s[i])-'0', uint(s[i+1])-'0'
	if hi > 9 || lo > 9 {
		return -1
	}
	return int(hi*10 + lo)
}

// daysIn returns the number of days in the month of the proleptic
// Gregorian year.
func daysIn(month, year int) int {
	if month == 2 {
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
	return 30 + (month+month>>3)&1 // 31 30 31 30 31 30 31 31 30 31 30 31
}

// daysFromCivil returns the days from 1970-01-01 to a valid date of the
// years 0000-9999 (H. Hinnant's days_from_civil, with the years shifted by
// one 400-year era so that every division is of a non-negative number).
func daysFromCivil(year, month, day int) int64 {
	if month <= 2 {
		year--
	}
	year += 400 // from -1..9999 to 399..10399
	era, yoe := year/400, year%400
	doy := (153*((month+9)%12)+2)/5 + day - 1 // days since March 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era-1)*146097 + int64(doe) - 719468
}

// pow10 holds the powers of ten that fit in a uint64.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// parseValue parses s when it is a plain decimal "[-]digits[.digits]"
// with at least one digit, at most 19 significant digits (leading zeros
// do not count) and at most 19 digits after the point, and returns the
// correctly rounded float64, bitwise what strconv.ParseFloat returns. An
// exponent, a '+', NaN, Inf, hex, more digits or any other input reports
// false.
func parseValue(s string) (float64, bool) {
	var sign uint64
	if s != "" && s[0] == '-' {
		sign, s = 1<<63, s[1:]
	}
	// m holds the digits without the point, exact while at most 19 of
	// them are significant.
	i, m := scanDigits(s, 0, 0)
	digits, frac := i, 0
	if i < len(s) && s[i] == '.' {
		i, m = scanDigits(s, i+1, m)
		frac = i - digits - 1
		digits += frac
	}
	if i != len(s) || digits == 0 || frac > 19 {
		return 0, false
	}
	if digits > 19 {
		lead := 0
		for j := 0; j < len(s) && (s[j] == '0' || s[j] == '.'); j++ {
			if s[j] == '0' {
				lead++
			}
		}
		if digits-lead > 19 {
			return 0, false
		}
	}
	if m == 0 {
		return math.Float64frombits(sign), true
	}
	return math.Float64frombits(sign | quotientBits(m, pow10[frac])), true
}

// scanDigits appends the decimal digits of s from index i on to m and
// returns the index of the first byte that is not a digit.
func scanDigits(s string, i int, m uint64) (int, uint64) {
	for ; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			break
		}
		m = m*10 + uint64(d)
	}
	return i, m
}

// quotientBits returns the bits of the float64 nearest to m/p, ties to
// even, for m and p in [1, 2^64) with m/p a normal float64. Both operands
// are shifted until their top bit is set, so one 128-by-64-bit division
// yields a 64-bit quotient q with m/p = (q + r/p)·2^e; q's low 11 bits
// and the remainder r (the sticky bit) decide the rounding of its top 53.
func quotientBits(m, p uint64) uint64 {
	a, b := bits.LeadingZeros64(m), bits.LeadingZeros64(p)
	m, p = m<<a, p<<b
	hi, lo, e := m, uint64(0), b-a-64 // m/p in [1/2, 1): q = m·2^64/p
	if m >= p {
		hi, lo, e = m>>1, m<<63, e+1 // m/p in [1, 2): q = m·2^63/p
	}
	q, r := bits.Div64(hi, lo, p)
	mant, rest := q>>11, q&(1<<11-1)
	if rest > 1<<10 || rest == 1<<10 && (r != 0 || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant, e = mant>>1, e+1
		}
	}
	// The value is mant·2^(e+11) with mant in [2^52, 2^53).
	return uint64(1023+52+e+11)<<52 | mant&(1<<52-1)
}
