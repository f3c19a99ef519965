// Minimal command-line flag parsing for benches and examples.
//
// Supports --name=value and --name value forms plus boolean --flag.
// Parsing is strict where it is cheap to be: malformed numeric values abort
// with a clear message instead of silently reading as 0, and programs call
// reject_unknown() after their last get*() so a mistyped flag aborts instead
// of being ignored. --help, unless the program queries it itself, makes
// reject_unknown() print every flag queried so far with its default and exit
// 0 -- the queried names are the binary's flags, so help never goes stale.
//
// Lookups take std::string_view and the maps use transparent comparators, so
// has()/get*() with a string literal never constructs a temporary
// std::string — benches poll flags in loops and should not allocate per
// lookup.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace presto::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(std::string_view name) const;
  std::string get(std::string_view name, const std::string& def) const;
  // Aborts if the value is not a (fully consumed) base-10 integer / number.
  std::int64_t get_int(std::string_view name, std::int64_t def) const;
  // As above, and aborts naming the flag and the range unless
  // lo <= value <= hi. Use it wherever the value is narrowed (to int, a
  // node count, a size), so an out-of-range value cannot wrap silently.
  std::int64_t get_int(std::string_view name, std::int64_t def,
                       std::int64_t lo, std::int64_t hi) const;
  double get_double(std::string_view name, double def) const;
  bool get_bool(std::string_view name, bool def = false) const;

  // Aborts, listing the offenders, if any provided --flag was never looked
  // up through the accessors above. Call once after the last get*(). With
  // --help given (and not queried), prints help_text() and exits 0 instead.
  void reject_unknown() const;

  // Usage text: every flag queried so far, with the default it was queried
  // with.
  std::string help_text() const;

  // Distinct flag names the program has queried so far (test hook: repeated
  // lookups of the same name must not grow this).
  std::size_t queried_count() const { return queried_.size(); }

 private:
  // Records the query, with the default --help shows for it. Allocates only
  // on a name's first query; def is formatted only then.
  template <typename Def>
  void note_query(std::string_view name, const Def& def) const;

  std::string prog_;
  std::map<std::string, std::string, std::less<>> flags_;
  // Flags the program asked about — the de-facto set of valid names —
  // mapped to the default each was first queried with.
  mutable std::map<std::string, std::string, std::less<>> queried_;
};

}  // namespace presto::util
