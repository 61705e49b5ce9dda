package timeseries

// ParseRow lets the external tests, which simulate households through a
// package that imports this one, check which rows take ReadCSV's fast
// path.
var ParseRow = parseRow
