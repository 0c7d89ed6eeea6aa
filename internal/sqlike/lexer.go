// Package sqlike implements a small SQL dialect over the reldb storage
// engine and exposes it as a database/sql driver (registered under the name
// "provsql"). It stands in for the MySQL + JDBC stack of the paper's
// implementation. The provenance store uses it for DDL and administration,
// and hands it out for ad-hoc queries (Store.DB); its writes and lineage
// probes go straight to reldb, and the probe statements
// they replaced live on as the reference the store's differential test
// compares them with.
//
// Supported statements:
//
//	CREATE TABLE t (col TYPE, ...)
//	CREATE INDEX i ON t (col, ...)
//	DROP TABLE t
//	INSERT INTO t (col, ...) VALUES (expr, ...) [, (expr, ...) ...]
//	SELECT * | COUNT(*) | col, ... FROM t
//	       [WHERE col = expr [AND ...] | col LIKE 'prefix%']
//	       [ORDER BY col [ASC|DESC], ...] [LIMIT n]
//	DELETE FROM t [WHERE ...]
//	SAVE TO 'path'        -- snapshot the database
//	LOAD FROM 'path'      -- replace the database with a snapshot
//
// Expressions are literals (strings, numbers, NULL) or ? placeholders.
package sqlike

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokString
	tokNumber
	tokPlaceholder
	tokPunct // ( ) , = * ; < <= > >=
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; strings are unquoted
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of statement"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

var keywords = map[string]bool{
	"CREATE": true, "TABLE": true, "INDEX": true, "ON": true, "DROP": true,
	"INSERT": true, "INTO": true, "VALUES": true, "SELECT": true, "FROM": true,
	"WHERE": true, "AND": true, "ORDER": true, "BY": true, "ASC": true,
	"DESC": true, "LIMIT": true, "DELETE": true, "COUNT": true, "NULL": true,
	"LIKE": true, "SAVE": true, "LOAD": true, "TO": true,
	"MIN": true, "MAX": true, "SUM": true, "AVG": true,
}

// lex tokenizes a statement.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '?':
			toks = append(toks, token{kind: tokPlaceholder, text: "?", pos: i})
			i++
		case c == '(' || c == ')' || c == ',' || c == '=' || c == '*' || c == ';':
			toks = append(toks, token{kind: tokPunct, text: string(c), pos: i})
			i++
		case c == '<' || c == '>':
			op := string(c)
			if i+1 < len(src) && src[i+1] == '=' {
				op += "="
				i++
			}
			toks = append(toks, token{kind: tokPunct, text: op, pos: i})
			i++
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= len(src) {
					return nil, fmt.Errorf("sqlike: unterminated string literal at offset %d", start)
				}
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			start := i
			i++
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.' || src[i] == 'e' || src[i] == 'E' ||
				((src[i] == '+' || src[i] == '-') && (src[i-1] == 'e' || src[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: src[start:i], pos: start})
		case isIdentStart(c):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		default:
			return nil, fmt.Errorf("sqlike: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(src)})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
