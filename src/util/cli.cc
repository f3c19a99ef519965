#include "util/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "util/check.h"

namespace presto::util {

Cli::Cli(int argc, char** argv) {
  if (argc > 0) {
    prog_ = argv[0];
    const auto slash = prog_.rfind('/');
    if (slash != std::string::npos) prog_.erase(0, slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    PRESTO_CHECK(arg.rfind("--", 0) == 0,
                 "unexpected positional argument '" << arg
                                                    << "' (flags are --name[=value])");
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[std::string(arg)] = argv[++i];
    } else {
// GCC 12 reports a bogus -Wrestrict inside libstdc++'s char_traits::copy
// when a one-character literal is assigned to a std::string (GCC bug
// 105329).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
      flags_[std::string(arg)] = "1";
#pragma GCC diagnostic pop
    }
  }
}

template <typename Def>
void Cli::note_query(std::string_view name, const Def& def) const {
  // Transparent find first: the common case (name already recorded) must not
  // build a temporary std::string.
  if (queried_.find(name) != queried_.end()) return;
  std::ostringstream text;
  if constexpr (std::is_same_v<Def, bool>) {
    text << (def ? "true" : "false");
  } else if constexpr (std::is_same_v<Def, std::string>) {
    text << '"' << def << '"';
  } else {
    text << def;
  }
  queried_.emplace(name, text.str());
}

bool Cli::has(std::string_view name) const {
  note_query(name, false);
  return flags_.find(name) != flags_.end();
}

std::string Cli::get(std::string_view name, const std::string& def) const {
  note_query(name, def);
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Cli::get_int(std::string_view name, std::int64_t def) const {
  note_query(name, def);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const std::int64_t parsed = std::strtoll(v.c_str(), &end, 10);
  PRESTO_CHECK(!v.empty() && end == v.c_str() + v.size(),
               "flag --" << name << " expects an integer, got '" << v << "'");
  PRESTO_CHECK(errno != ERANGE,
               "flag --" << name << " integer out of range: '" << v << "'");
  return parsed;
}

std::int64_t Cli::get_int(std::string_view name, std::int64_t def,
                          std::int64_t lo, std::int64_t hi) const {
  const std::int64_t v = get_int(name, def);
  PRESTO_CHECK(v >= lo && v <= hi, "flag --" << name << " must be in [" << lo
                                              << ", " << hi << "], got "
                                              << v);
  return v;
}

double Cli::get_double(std::string_view name, double def) const {
  note_query(name, def);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v.c_str(), &end);
  PRESTO_CHECK(!v.empty() && end == v.c_str() + v.size(),
               "flag --" << name << " expects a number, got '" << v << "'");
  PRESTO_CHECK(errno != ERANGE,
               "flag --" << name << " number out of range: '" << v << "'");
  return parsed;
}

bool Cli::get_bool(std::string_view name, bool def) const {
  note_query(name, def);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second != "0" && it->second != "false";
}

std::string Cli::help_text() const {
  std::string text = "usage: " + prog_ + " [--flag[=value] ...]\n";
  std::size_t width = 0;
  for (const auto& [name, def] : queried_)
    if (name.size() > width) width = name.size();
  for (const auto& [name, def] : queried_)
    text += "  --" + name + std::string(width - name.size() + 2, ' ') +
            "default: " + def + "\n";
  return text;
}

void Cli::reject_unknown() const {
  if (flags_.find("help") != flags_.end() &&
      queried_.find("help") == queried_.end()) {
    std::fputs(help_text().c_str(), stdout);
    std::exit(0);
  }
  std::string unknown;
  for (const auto& [name, value] : flags_) {
    if (queried_.find(name) != queried_.end()) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "--" + name;
  }
  PRESTO_CHECK(unknown.empty(), "unknown flag(s): " << unknown);
}

}  // namespace presto::util
