// Prints the native-backend kernel TU for the gray-model scenario to stdout.
//
// tools/check_docs.sh diffs this output against the commented listing embedded
// in CODEGEN.md §7 (between the BEGIN/END GENERATED markers), so the doc can
// never drift from the live emitter; the text is the TU every target runs.
// Run with --fix via the script to regenerate the block in place.

#include <cstdio>
#include <string>

#include "bte/gray.hpp"

int main() {
  finch::bte::GrayScenario scen;  // the documented configuration: 12 directions
  finch::bte::GrayBteProblem gray(scen);
  const std::string src = gray.problem().generated_native_source();
  std::fwrite(src.data(), 1, src.size(), stdout);
  return 0;
}
