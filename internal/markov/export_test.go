package markov

// MatchSearch exposes the search-based reference comparison to the
// external test package, which can import the packages that build on
// this one.
var MatchSearch = matchSearch
