package aql

import (
	"fmt"
	"strings"

	"asterixdb/internal/adm"
)

// Parse parses one or more semicolon-separated AQL statements.
func Parse(src string) ([]Statement, error) {
	p := &parser{src: src, lex: lexer{src: src}}
	p.advance()
	stmts, err := p.parseStatements()
	if err != nil {
		// A lexical error anywhere in the source is the one reported, also
		// after a syntax error before it.
		for p.lexErr == nil && !p.at(tokEOF) {
			p.advance()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return stmts, err
}

func (p *parser) parseStatements() ([]Statement, error) {
	var stmts []Statement
	for !p.at(tokEOF) {
		if p.atSymbol(";") {
			p.advance()
			continue
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		if p.atSymbol(";") {
			p.advance()
		}
	}
	return stmts, nil
}

// ParseQuery parses a single query expression (no DDL/DML), as used by
// function bodies and embedded callers.
func ParseQuery(src string) (Expr, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("aql: expected a single query, got %d statements", len(stmts))
	}
	q, ok := stmts[0].(*QueryStatement)
	if !ok {
		return nil, fmt.Errorf("aql: expected a query, got %T", stmts[0])
	}
	return q.Body, nil
}

// parser reads the lexer's tokens with one token of lookahead, tok.
type parser struct {
	src       string
	lex       lexer
	tok       token
	lexErr    error // the lexer's error, after which tok stays at EOF
	refusedTo int   // the offset where adm.ParsePrefix refused the last literal
}

func (p *parser) cur() token { return p.tok }

func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	tok, err := p.lex.next()
	if err != nil {
		p.lexErr, tok = err, token{kind: tokEOF, pos: p.lex.pos}
	}
	p.tok = tok
}

func (p *parser) at(k tokenKind) bool {
	return p.tok.kind == k
}
func (p *parser) atSymbol(s string) bool {
	return p.tok.kind == tokSymbol && p.tok.text == s
}
func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

// atBagClose reports whether the current token is the first of the adjacent
// '}' '}' that close a bag; the lexer leaves them apart so that they can
// also close two records.
func (p *parser) atBagClose() bool {
	return p.atSymbol("}") && strings.HasPrefix(p.src[p.tok.pos+1:], "}")
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("aql: parse error near %q (offset %d): %s", p.cur().String(), p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectSymbol(s string) error {
	if !p.atSymbol(s) {
		return p.errf("expected %q", s)
	}
	p.advance()
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errf("expected keyword %q", kw)
	}
	p.advance()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if !p.at(tokIdent) {
		return "", p.errf("expected identifier")
	}
	name := p.cur().text
	p.advance()
	return name, nil
}

func (p *parser) expectVariable() (string, error) {
	if !p.at(tokVariable) {
		return "", p.errf("expected variable")
	}
	name := p.cur().text
	p.advance()
	return name, nil
}

// expectFieldName reads a field name: an identifier or a string literal.
func (p *parser) expectFieldName() (string, error) {
	if p.at(tokString) {
		return p.expectString()
	}
	return p.expectIdent()
}

func (p *parser) expectString() (string, error) {
	if !p.at(tokString) {
		return "", p.errf("expected string literal")
	}
	s := p.cur().text
	p.advance()
	return s, nil
}

// ----------------------------------------------------------------------------
// Statements
// ----------------------------------------------------------------------------

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.atKeyword("use"):
		return p.parseUse()
	case p.atKeyword("create"):
		return p.parseCreate()
	case p.atKeyword("drop"):
		return p.parseDrop()
	case p.atKeyword("insert"):
		return p.parseInsert()
	case p.atKeyword("delete"):
		return p.parseDelete()
	case p.atKeyword("load"):
		return p.parseLoad()
	case p.atKeyword("set"):
		return p.parseSet()
	case p.atKeyword("connect"):
		return p.parseConnectFeed()
	case p.atKeyword("disconnect"):
		return p.parseDisconnectFeed()
	default:
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &QueryStatement{Body: expr}, nil
	}
}

func (p *parser) parseUse() (Statement, error) {
	p.advance() // use
	if err := p.expectKeyword("dataverse"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DataverseDecl{Name: name}, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // create
	switch {
	case p.atKeyword("dataverse"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ine, err := p.parseIfNotExists()
		if err != nil {
			return nil, err
		}
		return &CreateDataverse{Name: name, IfNotExists: ine}, nil
	case p.atKeyword("type"):
		return p.parseCreateType()
	case p.atKeyword("dataset"), p.atKeyword("internal"):
		if p.atKeyword("internal") {
			p.advance()
		}
		return p.parseCreateDataset(false)
	case p.atKeyword("external"):
		p.advance()
		if err := p.expectKeyword("dataset"); err != nil {
			return nil, err
		}
		return p.parseCreateDatasetBody(true)
	case p.atKeyword("index"):
		return p.parseCreateIndex()
	case p.atKeyword("function"):
		return p.parseCreateFunction()
	case p.atKeyword("feed"):
		return p.parseCreateFeed()
	}
	return nil, p.errf("unsupported create statement")
}

func (p *parser) parseIfNotExists() (bool, error) {
	if p.atKeyword("if") {
		p.advance()
		if err := p.expectKeyword("not"); err != nil {
			return false, err
		}
		if err := p.expectKeyword("exists"); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

func (p *parser) parseIfExists() (bool, error) {
	if p.atKeyword("if") {
		p.advance()
		if err := p.expectKeyword("exists"); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

func (p *parser) parseCreateType() (Statement, error) {
	p.advance() // type
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("as"); err != nil {
		return nil, err
	}
	open := true
	if p.atKeyword("open") {
		p.advance()
	} else if p.atKeyword("closed") {
		open = false
		p.advance()
	}
	body, err := p.parseRecordTypeBody(open)
	if err != nil {
		return nil, err
	}
	return &CreateType{Name: name, Definition: *body, IfNotExists: ine}, nil
}

func (p *parser) parseRecordTypeBody(open bool) (*RecordTypeExpr, error) {
	if err := p.expectSymbol("{"); err != nil {
		return nil, err
	}
	body := &RecordTypeExpr{Open: open}
	for {
		if p.atSymbol("}") {
			p.advance()
			return body, nil
		}
		fieldName, err := p.expectFieldName()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(":"); err != nil {
			return nil, err
		}
		te, err := p.parseTypeExpr()
		if err != nil {
			return nil, err
		}
		optional := false
		if p.atSymbol("?") {
			optional = true
			p.advance()
		}
		body.Fields = append(body.Fields, TypeField{Name: fieldName, Type: *te, Optional: optional})
		if p.atSymbol(",") {
			p.advance()
			continue
		}
		if p.atSymbol("}") {
			p.advance()
			return body, nil
		}
		return nil, p.errf("expected ',' or '}' in type definition")
	}
}

func (p *parser) parseTypeExpr() (*TypeExpr, error) {
	switch {
	case p.atSymbol("{{"):
		p.advance()
		item, err := p.parseTypeExpr()
		if err != nil {
			return nil, err
		}
		if !p.atBagClose() {
			return nil, p.errf("expected %q", "}}")
		}
		p.advance()
		p.advance()
		return &TypeExpr{UnorderedItem: item}, nil
	case p.atSymbol("["):
		p.advance()
		item, err := p.parseTypeExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		return &TypeExpr{OrderedItem: item}, nil
	case p.atSymbol("{"):
		// Anonymous nested record (open by default).
		body, err := p.parseRecordTypeBody(true)
		if err != nil {
			return nil, err
		}
		return &TypeExpr{Record: body}, nil
	default:
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &TypeExpr{Name: name}, nil
	}
}

func (p *parser) parseCreateDataset(external bool) (Statement, error) {
	p.advance() // dataset
	return p.parseCreateDatasetBody(external)
}

func (p *parser) parseCreateDatasetBody(external bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	typeName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	ds := &CreateDataset{Name: name, TypeName: typeName, External: external, IfNotExists: ine}
	for {
		switch {
		case p.atKeyword("primary"):
			p.advance()
			if err := p.expectKeyword("key"); err != nil {
				return nil, err
			}
			for {
				f, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				ds.PrimaryKey = append(ds.PrimaryKey, f)
				if p.atSymbol(",") {
					p.advance()
					continue
				}
				break
			}
		case p.atKeyword("using"):
			p.advance()
			adaptor, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			props, err := p.parsePropertyList()
			if err != nil {
				return nil, err
			}
			ds.Adaptor, ds.Properties = adaptor, props
		default:
			return ds, nil
		}
	}
}

// parsePropertyList parses (("k"="v"),("k2"="v2")).
func (p *parser) parsePropertyList() (map[string]string, error) {
	props := map[string]string{}
	if !p.atSymbol("(") {
		return props, nil
	}
	p.advance()
	for {
		if p.atSymbol(")") {
			p.advance()
			return props, nil
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		k, err := p.expectString()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		v, err := p.expectString()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		props[k] = v
		if p.atSymbol(",") {
			p.advance()
		}
	}
}

func (p *parser) parseCreateIndex() (Statement, error) {
	p.advance() // index
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	dataset, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	idx := &CreateIndex{Name: name, Dataset: dataset, Kind: IndexBTree, IfNotExists: ine}
	for {
		f, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		idx.Fields = append(idx.Fields, f)
		if p.atSymbol(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if p.atKeyword("type") {
		p.advance()
		kind, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(kind) {
		case "btree":
			idx.Kind = IndexBTree
		case "rtree":
			idx.Kind = IndexRTree
		case "keyword":
			idx.Kind = IndexKeyword
		case "ngram":
			idx.Kind = IndexNGram
			idx.GramLength = 3
			if p.atSymbol("(") {
				p.advance()
				n, ok := p.cur().val.(adm.Int32)
				if !ok {
					return nil, p.errf("expected gram length")
				}
				idx.GramLength = int(n)
				p.advance()
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
		default:
			return nil, p.errf("unknown index type %q", kind)
		}
	}
	return idx, nil
}

func (p *parser) parseCreateFunction() (Statement, error) {
	p.advance() // function
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	fn := &CreateFunction{Name: name}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for !p.atSymbol(")") {
		v, err := p.expectVariable()
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, v)
		if p.atSymbol(",") {
			p.advance()
		}
	}
	p.advance() // ')'
	if err := p.expectSymbol("{"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	if err := p.expectSymbol("}"); err != nil {
		return nil, err
	}
	return fn, nil
}

func (p *parser) parseCreateFeed() (Statement, error) {
	p.advance() // feed
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("using"); err != nil {
		return nil, err
	}
	adaptor, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	props, err := p.parsePropertyList()
	if err != nil {
		return nil, err
	}
	feed := &CreateFeed{Name: name, Adaptor: adaptor, Properties: props}
	if p.atKeyword("apply") {
		p.advance()
		if err := p.expectKeyword("function"); err != nil {
			return nil, err
		}
		fn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		feed.ApplyFunction = fn
	}
	return feed, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.advance() // drop
	switch {
	case p.atKeyword("dataverse"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ie, err := p.parseIfExists()
		if err != nil {
			return nil, err
		}
		return &DropDataverse{Name: name, IfExists: ie}, nil
	case p.atKeyword("type"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ie, err := p.parseIfExists()
		if err != nil {
			return nil, err
		}
		return &DropType{Name: name, IfExists: ie}, nil
	case p.atKeyword("dataset"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ie, err := p.parseIfExists()
		if err != nil {
			return nil, err
		}
		return &DropDataset{Name: name, IfExists: ie}, nil
	case p.atKeyword("index"):
		p.advance()
		ds, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("."); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ie, err := p.parseIfExists()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Dataset: ds, Name: name, IfExists: ie}, nil
	case p.atKeyword("function"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ie, err := p.parseIfExists()
		if err != nil {
			return nil, err
		}
		return &DropFunction{Name: name, IfExists: ie}, nil
	case p.atKeyword("feed"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropFeed{Name: name}, nil
	}
	return nil, p.errf("unsupported drop statement")
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // insert
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("dataset"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	// The body may be parenthesised (as in the paper) or bare.
	paren := false
	if p.atSymbol("(") {
		paren = true
		p.advance()
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if paren {
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	return &InsertStatement{Dataset: name, Body: body}, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // delete
	v, err := p.expectVariable()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("dataset"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &DeleteStatement{Var: v, Dataset: name}
	if p.atKeyword("where") {
		p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = cond
	}
	return del, nil
}

func (p *parser) parseLoad() (Statement, error) {
	p.advance() // load
	if err := p.expectKeyword("dataset"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("using"); err != nil {
		return nil, err
	}
	adaptor, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	props, err := p.parsePropertyList()
	if err != nil {
		return nil, err
	}
	return &LoadStatement{Dataset: name, Adaptor: adaptor, Properties: props}, nil
}

func (p *parser) parseSet() (Statement, error) {
	p.advance() // set
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	val, err := p.expectString()
	if err != nil {
		return nil, err
	}
	return &SetStatement{Name: name, Value: val}, nil
}

func (p *parser) parseConnectFeed() (Statement, error) {
	p.advance() // connect
	if err := p.expectKeyword("feed"); err != nil {
		return nil, err
	}
	feed, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("to"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("dataset"); err != nil {
		return nil, err
	}
	ds, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &ConnectFeed{Feed: feed, Dataset: ds}, nil
}

func (p *parser) parseDisconnectFeed() (Statement, error) {
	p.advance() // disconnect
	if err := p.expectKeyword("feed"); err != nil {
		return nil, err
	}
	feed, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("dataset"); err != nil {
		return nil, err
	}
	ds, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DisconnectFeed{Feed: feed, Dataset: ds}, nil
}

// ----------------------------------------------------------------------------
// Expressions
// ----------------------------------------------------------------------------

// Reserved words that terminate a value expression inside FLWOR contexts.
var clauseKeywords = map[string]bool{
	"for": true, "let": true, "where": true, "group": true, "order": true,
	"limit": true, "return": true, "satisfies": true, "with": true,
	"then": true, "else": true, "desc": true, "asc": true, "offset": true,
	"at": true, "in": true, "to": true, "from": true,
}

func (p *parser) parseExpr() (Expr, error) {
	switch {
	case p.atKeyword("for"), p.atKeyword("let"):
		return p.parseFLWOR()
	case p.atKeyword("some"), p.atKeyword("every"):
		return p.parseQuantified()
	case p.atKeyword("if"):
		return p.parseIf()
	default:
		return p.parseOr()
	}
}

func (p *parser) parseFLWOR() (Expr, error) {
	fl := &FLWORExpr{}
	for {
		switch {
		case p.atKeyword("for"):
			p.advance()
			v, err := p.expectVariable()
			if err != nil {
				return nil, err
			}
			posVar := ""
			if p.atKeyword("at") {
				p.advance()
				posVar, err = p.expectVariable()
				if err != nil {
					return nil, err
				}
			}
			if err := p.expectKeyword("in"); err != nil {
				return nil, err
			}
			src, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			fl.Clauses = append(fl.Clauses, &ForClause{Var: v, PosVar: posVar, Source: src})
		case p.atKeyword("let"):
			p.advance()
			v, err := p.expectVariable()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(":="); err != nil {
				return nil, err
			}
			e, err := p.parseExprOperand()
			if err != nil {
				return nil, err
			}
			fl.Clauses = append(fl.Clauses, &LetClause{Var: v, Expr: e})
		case p.atKeyword("where"):
			p.advance()
			cond, err := p.parseExprOperand()
			if err != nil {
				return nil, err
			}
			fl.Clauses = append(fl.Clauses, &WhereClause{Cond: cond})
		case p.atKeyword("group"):
			p.advance()
			if err := p.expectKeyword("by"); err != nil {
				return nil, err
			}
			gb := &GroupByClause{}
			for {
				v, err := p.expectVariable()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(":="); err != nil {
					return nil, err
				}
				e, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				gb.Keys = append(gb.Keys, GroupKey{Var: v, Expr: e})
				if p.atSymbol(",") {
					p.advance()
					continue
				}
				break
			}
			if err := p.expectKeyword("with"); err != nil {
				return nil, err
			}
			for {
				v, err := p.expectVariable()
				if err != nil {
					return nil, err
				}
				// After the clause $v would name both the key and the group's
				// bag of $v: refuse the clash rather than pick one.
				for _, k := range gb.Keys {
					if k.Var == v {
						return nil, p.errf("$%s is both a group key and a with variable", v)
					}
				}
				gb.With = append(gb.With, v)
				if p.atSymbol(",") {
					p.advance()
					continue
				}
				break
			}
			fl.Clauses = append(fl.Clauses, gb)
		case p.atKeyword("order"):
			p.advance()
			if err := p.expectKeyword("by"); err != nil {
				return nil, err
			}
			ob := &OrderByClause{}
			for {
				e, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				term := OrderTerm{Expr: e}
				if p.atKeyword("desc") {
					term.Desc = true
					p.advance()
				} else if p.atKeyword("asc") {
					p.advance()
				}
				ob.Terms = append(ob.Terms, term)
				if p.atSymbol(",") {
					p.advance()
					continue
				}
				break
			}
			fl.Clauses = append(fl.Clauses, ob)
		case p.atKeyword("limit"):
			p.advance()
			lim, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			lc := &LimitClause{Limit: lim}
			if p.atKeyword("offset") {
				p.advance()
				off, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				lc.Offset = off
			}
			fl.Clauses = append(fl.Clauses, lc)
		case p.atKeyword("return"):
			p.advance()
			ret, err := p.parseExprOperand()
			if err != nil {
				return nil, err
			}
			fl.Return = ret
			if len(fl.Clauses) == 0 {
				return nil, p.errf("FLWOR expression needs at least one for/let clause")
			}
			return fl, nil
		default:
			return nil, p.errf("expected FLWOR clause or return")
		}
	}
}

// parseExprOperand parses an expression that may itself be a nested FLWOR,
// quantified or if expression (e.g. the right-hand side of let, the return
// expression, or a where condition containing a quantifier).
func (p *parser) parseExprOperand() (Expr, error) {
	switch {
	case p.atKeyword("for"), p.atKeyword("let"):
		return p.parseFLWOR()
	case p.atKeyword("if"):
		return p.parseIf()
	default:
		return p.parseOr()
	}
}

func (p *parser) parseQuantified() (Expr, error) {
	every := p.atKeyword("every")
	p.advance()
	v, err := p.expectVariable()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("in"); err != nil {
		return nil, err
	}
	src, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("satisfies"); err != nil {
		return nil, err
	}
	sat, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	return &QuantifiedExpr{Every: every, Var: v, Source: src, Satisfies: sat}, nil
}

func (p *parser) parseIf() (Expr, error) {
	p.advance() // if
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExprOperand()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprOperand()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprOperand()
	if err != nil {
		return nil, err
	}
	return &IfExpr{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		p.advance()
		right, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

var comparisonOps = map[string]BinaryOp{
	"=": OpEq, "!=": OpNeq, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe, "~=": OpFuzzyEq,
}

func (p *parser) parseComparison() (Expr, error) {
	// A quantified expression may appear as a comparison operand, e.g.
	// "where some $e in ... satisfies ... and ...".
	if p.atKeyword("some") || p.atKeyword("every") {
		return p.parseQuantified()
	}
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	hint := ""
	if p.at(tokHint) {
		hint = p.cur().text
		p.advance()
	}
	if p.cur().kind == tokSymbol {
		if op, ok := comparisonOps[p.cur().text]; ok {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right, Hint: hint}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "+" || p.cur().text == "-") {
		op := OpAdd
		if p.cur().text == "-" {
			op = OpSub
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "*" || p.cur().text == "/" || p.cur().text == "%") {
		var op BinaryOp
		switch p.cur().text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		default:
			op = OpMod
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.atKeyword("not") {
		p.advance()
		// not may be written with or without parentheses.
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "not", Operand: operand}, nil
	}
	if p.atSymbol("-") {
		minus := p.cur()
		p.advance()
		// A '-' just before a number is the number's sign: -5 is an int32
		// literal and -128i8 an int8 one, not negations of 5 and 128i8.
		if num := p.cur(); num.kind == tokNumber && num.pos == minus.pos+1 {
			v, _, err := adm.ParseNumber(p.src[minus.pos : num.pos+len(num.text)])
			if err != nil {
				return nil, p.errf("%v", err)
			}
			p.advance()
			return &Literal{Value: v}, nil
		}
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Operand: operand}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atSymbol("."):
			p.advance()
			name, err := p.expectFieldName()
			if err != nil {
				return nil, err
			}
			e = &FieldAccess{Base: e, Field: name}
		case p.atSymbol("["):
			p.advance()
			idx, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol("]"); err != nil {
				return nil, err
			}
			e = &IndexAccess{Base: e, Index: idx}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.cur()
	switch tok.kind {
	case tokVariable:
		p.advance()
		return &VariableRef{Name: tok.text}, nil
	case tokNumber:
		if tok.val == nil {
			_, _, err := adm.ParseNumber(tok.text)
			return nil, p.errf("%v", err)
		}
		p.advance()
		return &Literal{Value: tok.val}, nil
	case tokString:
		p.advance()
		return &Literal{Value: adm.String(tok.text)}, nil
	case tokSymbol:
		switch tok.text {
		case "{", "[", "{{":
			// A literal adm reads whole is one value; anything else it
			// refuses (an expression inside, a comment, a trailing comma)
			// is parsed below as a constructor. A bracket before the
			// offset where adm refused the last text opens a value adm
			// has read or one that it refuses at that same offset, so it
			// is not handed to adm again: each byte is read by adm once.
			if tok.pos >= p.refusedTo {
				v, n, err := adm.ParsePrefix(p.src[tok.pos:])
				if err == nil {
					p.lex.pos = tok.pos + n
					p.advance()
					return &Literal{Value: v}, nil
				}
				p.refusedTo = tok.pos + n
			}
		}
		switch tok.text {
		case "(":
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "{{":
			p.advance()
			items, err := p.parseOperands("}}")
			return &ListConstructor{Items: items}, err
		case "[":
			p.advance()
			items, err := p.parseOperands("]")
			return &ListConstructor{Ordered: true, Items: items}, err
		case "{":
			return p.parseRecordConstructor()
		}
	case tokIdent:
		word := tok.text
		lower := strings.ToLower(word)
		if lower == "dataset" {
			p.advance()
			first, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.atSymbol(".") {
				p.advance()
				second, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				return &DatasetRef{Dataverse: first, Name: second}, nil
			}
			return &DatasetRef{Name: first}, nil
		}
		if lower == "true" {
			p.advance()
			return &Literal{Value: adm.Boolean(true)}, nil
		}
		if lower == "false" {
			p.advance()
			return &Literal{Value: adm.Boolean(false)}, nil
		}
		if lower == "null" {
			p.advance()
			return &Literal{Value: adm.Null{}}, nil
		}
		if lower == "missing" {
			p.advance()
			return &Literal{Value: adm.Missing{}}, nil
		}
		if clauseKeywords[lower] {
			return nil, p.errf("unexpected keyword %q", word)
		}
		p.advance()
		// Function call?
		if p.atSymbol("(") {
			p.advance()
			args, err := p.parseOperands(")")
			if err != nil {
				return nil, err
			}
			call := &CallExpr{Func: word, Args: args}
			// Constructor calls with a single string literal argument fold
			// into ADM literals right here (datetime("..."), point("...")),
			// and so does an interval of two literal bounds, as in the
			// text Interval.String writes.
			if word == "interval" && len(call.Args) == 2 {
				start, sok := call.Args[0].(*Literal)
				end, eok := call.Args[1].(*Literal)
				if sok && eok {
					v, err := adm.NewInterval(start.Value, end.Value)
					if err != nil {
						return nil, p.errf("%v", err)
					}
					return &Literal{Value: v}, nil
				}
			}
			if len(call.Args) == 1 {
				if lit, ok := call.Args[0].(*Literal); ok {
					if s, ok := lit.Value.(adm.String); ok {
						if v, err := adm.Construct(word, string(s)); err == nil {
							return &Literal{Value: v}, nil
						}
					}
				}
			}
			return call, nil
		}
		return nil, p.errf("unexpected identifier %q", word)
	}
	return nil, p.errf("unexpected token")
}

// parseOperands parses comma-separated operands up to close, which it
// consumes: ")", "]" or a bag's "}}", which is two tokens. A comma goes
// between two operands and nowhere else.
func (p *parser) parseOperands(close string) ([]Expr, error) {
	atClose := func() bool { return p.atSymbol(close) }
	if close == "}}" {
		atClose = p.atBagClose
	}
	var items []Expr
	for !atClose() {
		if len(items) > 0 {
			if !p.atSymbol(",") {
				return nil, p.errf("expected ',' or %q", close)
			}
			p.advance()
		}
		item, err := p.parseExprOperand()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	for range len(close) {
		p.advance()
	}
	return items, nil
}

func (p *parser) parseRecordConstructor() (Expr, error) {
	p.advance() // '{'
	rc := &RecordConstructor{}
	if p.atSymbol("}") {
		p.advance()
		return rc, nil
	}
	for {
		name, err := p.expectFieldName()
		if err != nil {
			return nil, err
		}
		for _, f := range rc.Fields {
			if f.Name == name {
				return nil, p.errf("repeated field name %q", name)
			}
		}
		if err := p.expectSymbol(":"); err != nil {
			return nil, err
		}
		val, err := p.parseExprOperand()
		if err != nil {
			return nil, err
		}
		rc.Fields = append(rc.Fields, RecordConstructorField{Name: name, Value: val})
		if p.atSymbol(",") {
			p.advance()
			continue
		}
		if p.atSymbol("}") {
			p.advance()
			return rc, nil
		}
		return nil, p.errf("expected ',' or '}' in record constructor")
	}
}
