#include "focq/logic/vars.h"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "focq/util/check.h"

namespace focq {
namespace {

// Servers parse and compile statements on many pool workers at once, so the
// table is locked; names live in a deque so the references VarName hands
// out survive later growth.
struct VarTable {
  std::mutex mutex;
  std::deque<std::string> names;
  std::unordered_map<std::string, Var> ids;
};

VarTable& Table() {
  static VarTable& table = *new VarTable();  // never destroyed, by design
  return table;
}

Var Intern(VarTable& table, const std::string& name) {
  auto it = table.ids.find(name);
  if (it != table.ids.end()) return it->second;
  Var id = static_cast<Var>(table.names.size());
  table.names.push_back(name);
  table.ids.emplace(name, id);
  return id;
}

}  // namespace

Var VarNamed(const std::string& name) {
  VarTable& table = Table();
  std::lock_guard<std::mutex> lock(table.mutex);
  return Intern(table, name);
}

const std::string& VarName(Var v) {
  VarTable& table = Table();
  std::lock_guard<std::mutex> lock(table.mutex);
  FOCQ_CHECK_LT(v, table.names.size());
  return table.names[v];
}

Var FreshVar(const std::string& hint) {
  VarTable& table = Table();
  std::lock_guard<std::mutex> lock(table.mutex);
  for (std::size_t i = table.names.size();; ++i) {
    std::string candidate = hint + "$" + std::to_string(i);
    if (!table.ids.contains(candidate)) return Intern(table, candidate);
  }
}

}  // namespace focq
