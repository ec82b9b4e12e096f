#include "focq/testing/case_io.h"

#include <fstream>
#include <sstream>

#include "focq/logic/parser.h"
#include "focq/logic/printer.h"
#include "focq/structure/io.h"

namespace focq::fuzz {

std::string WriteCase(const DiffCase& c) {
  std::string out = "# focq differential test case\n";
  out += "mode " + CaseModeName(c.mode) + "\n";
  if (c.mode == CaseMode::kTerm) {
    out += "term " + ToString(c.term) + "\n";
  } else {
    out += "formula " + ToString(c.formula) + "\n";
  }
  for (const Term& t : c.head_terms) {
    out += "headterm " + ToString(t) + "\n";
  }
  for (const TupleUpdate& u : c.updates) {
    out += "update " + UpdateToString(u, c.structure.signature()) + "\n";
  }
  out += "structure\n";
  out += WriteStructure(c.structure);
  return out;
}

Result<DiffCase> ReadCase(const std::string& text) {
  DiffCase c;
  bool have_mode = false;
  bool have_expr = false;
  std::istringstream in(text);
  std::string line;
  std::ostringstream structure_text;
  std::vector<std::string> raw_updates;
  bool in_structure = false;
  while (std::getline(in, line)) {
    if (in_structure) {
      structure_text << line << "\n";
      continue;
    }
    // Skip blank and comment lines. Comments are whole-line only: '#' also
    // starts counting terms, so formula lines must never be truncated.
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;
    std::string rest;
    std::getline(fields, rest);
    std::size_t start = rest.find_first_not_of(" \t");
    rest = start == std::string::npos ? "" : rest.substr(start);
    if (key == "mode") {
      std::optional<CaseMode> mode = ParseCaseMode(rest);
      if (!mode.has_value()) {
        return Status::InvalidArgument("unknown case mode '" + rest + "'");
      }
      c.mode = *mode;
      have_mode = true;
    } else if (key == "formula") {
      Result<Formula> f = ParseFormula(rest);
      if (!f.ok()) return f.status();
      c.formula = *f;
      have_expr = true;
    } else if (key == "term") {
      Result<Term> t = ParseTerm(rest);
      if (!t.ok()) return t.status();
      c.term = *t;
      have_expr = true;
    } else if (key == "headterm") {
      Result<Term> t = ParseTerm(rest);
      if (!t.ok()) return t.status();
      c.head_terms.push_back(*t);
    } else if (key == "update") {
      // Updates reference relation symbols, so parsing must wait until the
      // structure section below supplies the signature.
      raw_updates.push_back(rest);
    } else if (key == "structure") {
      in_structure = true;
    } else {
      return Status::InvalidArgument("unknown case key '" + key + "'");
    }
  }
  if (!have_mode) return Status::InvalidArgument("missing 'mode' line");
  if (!have_expr) {
    return Status::InvalidArgument("missing 'formula' or 'term' line");
  }
  if (c.mode == CaseMode::kTerm && !c.term.IsValid()) {
    return Status::InvalidArgument("mode term requires a 'term' line");
  }
  if (c.mode != CaseMode::kTerm && !c.formula.IsValid()) {
    return Status::InvalidArgument("mode " + CaseModeName(c.mode) +
                                   " requires a 'formula' line");
  }
  if (!in_structure) return Status::InvalidArgument("missing 'structure' section");
  Result<Structure> a = ReadStructure(structure_text.str());
  if (!a.ok()) return a.status();
  c.structure = *a;
  for (const std::string& raw : raw_updates) {
    Result<TupleUpdate> u = ParseUpdate(raw, c.structure.signature());
    if (!u.ok()) return u.status();
    for (ElemId e : u->tuple) {
      if (e >= c.structure.universe_size()) {
        return Status::OutOfRange("update element " + std::to_string(e) +
                                  " outside universe in '" + raw + "'");
      }
    }
    c.updates.push_back(*u);
  }
  return c;
}

Status WriteCaseFile(const std::string& path, const DiffCase& c) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open '" + path + "' for writing");
  out << WriteCase(c);
  return out.good() ? Status::Ok()
                    : Status::Internal("short write to '" + path + "'");
}

Result<DiffCase> ReadCaseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadCase(buffer.str());
}

std::string CaseToCppSnippet(const DiffCase& c) {
  const Signature& sig = c.structure.signature();
  std::string out;
  out += "// Repro: " + CaseModeName(c.mode) +
         " case, fast pipeline vs naive oracle.\n";
  out += "Structure a(Signature({";
  for (SymbolId id = 0; id < sig.NumSymbols(); ++id) {
    if (id > 0) out += ", ";
    out += "{\"" + sig.Name(id) + "\", " + std::to_string(sig.Arity(id)) + "}";
  }
  out += "}), " + std::to_string(c.structure.universe_size()) + ");\n";
  for (SymbolId id = 0; id < sig.NumSymbols(); ++id) {
    for (TupleRef t : c.structure.relation(id).tuples()) {
      out += "a.AddTuple(" + std::to_string(id) + ", {";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(t[i]);
      }
      out += "});\n";
    }
  }
  if (!c.updates.empty()) {
    out += "// Update sequence: apply each via Session(&a).ApplyUpdate and\n";
    out += "// re-compare engines after every step.\n";
    for (const TupleUpdate& u : c.updates) {
      out += "//   " + UpdateToString(u, sig) + "\n";
    }
  }
  out += "EvalOptions naive, local;\n";
  out += "naive.engine = Engine::kNaive;\n";
  out += "local.engine = Engine::kLocal;\n";
  if (c.mode == CaseMode::kTerm) {
    out += "Term t = *ParseTerm(R\"(" + ToString(c.term) + ")\");\n";
    out += "EXPECT_EQ(*EvaluateGroundTerm(t, a, naive),\n"
           "          *EvaluateGroundTerm(t, a, local));\n";
  } else {
    out += "Formula phi = *ParseFormula(R\"(" + ToString(c.formula) + ")\");\n";
    if (c.mode == CaseMode::kCheck) {
      out += "EXPECT_EQ(*ModelCheck(phi, a, naive),\n"
             "          *ModelCheck(phi, a, local));\n";
    } else if (c.mode == CaseMode::kCount) {
      out += "EXPECT_EQ(*CountSolutions(phi, a, naive),\n"
             "          *CountSolutions(phi, a, local));\n";
    } else {
      out += "Foc1Query q;  // head vars = free vars in name order\n";
      out += "q.condition = phi;\n";
      for (const Term& t : c.head_terms) {
        out += "q.head_terms.push_back(*ParseTerm(R\"(" + ToString(t) +
               ")\"));\n";
      }
      out += "// fill q.head_vars from FreeVars(phi) + head terms, sorted\n"
             "// by VarName, then:\n";
      out += "EXPECT_EQ(EvaluateQuery(q, a, naive)->rows,\n"
             "          EvaluateQuery(q, a, local)->rows);\n";
    }
  }
  return out;
}

}  // namespace focq::fuzz
