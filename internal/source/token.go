// Package source implements the mini-C frontend: a lexer, parser, type
// checker, and lowering to the project IR. The language is the subset of
// C the register promotion paper's workloads need: int scalars, int
// arrays, pointers to int obtained with &, structs with int fields,
// global and local variables, functions, and full structured control
// flow. It deliberately includes the three features that drive the
// paper's algorithm: global variables (memory-resident by default),
// address-exposed locals, and function calls / pointer references that
// act as aliased loads and stores.
package source

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNum

	// Keywords.
	TokInt
	TokVoid
	TokStruct
	TokIf
	TokElse
	TokWhile
	TokFor
	TokDo
	TokReturn
	TokBreak
	TokContinue

	// Punctuation and operators.
	TokLParen   // (
	TokRParen   // )
	TokLBrace   // {
	TokRBrace   // }
	TokLBracket // [
	TokRBracket // ]
	TokSemi     // ;
	TokComma    // ,
	TokDot      // .
	TokAssign   // =
	TokPlus     // +
	TokMinus    // -
	TokStar     // *
	TokSlash    // /
	TokPercent  // %
	TokAmp      // &
	TokPipe     // |
	TokCaret    // ^
	TokShl      // <<
	TokShr      // >>
	TokBang     // !
	TokTilde    // ~
	TokEq       // ==
	TokNe       // !=
	TokLt       // <
	TokLe       // <=
	TokGt       // >
	TokGe       // >=
	TokAndAnd   // &&
	TokOrOr     // ||
	TokPlusEq   // +=
	TokMinusEq  // -=
	TokStarEq   // *=
	TokSlashEq  // /=
	TokPctEq    // %=
	TokInc      // ++
	TokDec      // --
)

var kindNames = [...]string{
	TokEOF: "EOF", TokIdent: "identifier", TokNum: "number",
	TokInt: "int", TokVoid: "void", TokStruct: "struct", TokIf: "if",
	TokElse: "else", TokWhile: "while", TokFor: "for", TokDo: "do",
	TokReturn: "return", TokBreak: "break", TokContinue: "continue",
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBracket: "[", TokRBracket: "]", TokSemi: ";", TokComma: ",",
	TokDot: ".", TokAssign: "=", TokPlus: "+", TokMinus: "-",
	TokStar: "*", TokSlash: "/", TokPercent: "%", TokAmp: "&",
	TokPipe: "|", TokCaret: "^", TokShl: "<<", TokShr: ">>",
	TokBang: "!", TokTilde: "~", TokEq: "==", TokNe: "!=",
	TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
	TokAndAnd: "&&", TokOrOr: "||", TokPlusEq: "+=", TokMinusEq: "-=",
	TokStarEq: "*=", TokSlashEq: "/=", TokPctEq: "%=", TokInc: "++",
	TokDec: "--",
}

// String returns a human-readable token kind name.
func (k TokKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("tok(%d)", uint8(k))
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string // identifier spelling
	Num  int64  // numeric literal value
	Pos  Pos
}

// keyword returns the keyword token kind spelled text, or TokIdent.
func keyword(text string) TokKind {
	switch text {
	case "int":
		return TokInt
	case "void":
		return TokVoid
	case "struct":
		return TokStruct
	case "if":
		return TokIf
	case "else":
		return TokElse
	case "while":
		return TokWhile
	case "for":
		return TokFor
	case "do":
		return TokDo
	case "return":
		return TokReturn
	case "break":
		return TokBreak
	case "continue":
		return TokContinue
	}
	return TokIdent
}
