#pragma once
// A two-variable problem whose boundary callbacks check
// BoundaryContext::field and record the thread they run on, shared by the
// VM/GPU and native-backend tests.

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "core/dsl/problem.hpp"
#include "mesh/mesh.hpp"

namespace finch::test_support {

// Per condition type, how often the probed callbacks ran and how often
// BoundaryContext::field was not the variable they were registered for, plus
// every thread a callback ran on. Callbacks update it under `mutex`, so a
// callback on a pool worker is recorded, not a data race.
struct FieldProbe {
  int calls[2] = {0, 0};  // [Flux, Value]
  int wrong[2] = {0, 0};
  std::mutex mutex;
  std::set<std::thread::id> threads;
};

// Two coupled variables u[d] and v[d]: each equation reads the other
// variable, whose storage moves at every commit. Each has a Flux condition
// on the y-min wall and a Value condition on the x-min wall, all probed.
inline std::unique_ptr<dsl::Problem> coupled_problem(dsl::Backend backend, FieldProbe& probe) {
  auto p = std::make_unique<dsl::Problem>("coupled");
  p->domain(2);
  p->set_steps(0.002, 4);
  p->set_mesh(mesh::Mesh::structured_quad(5, 4, 1.0, 1.0));
  p->execution_backend(backend);
  p->index("d", 1, 2);
  p->variable("u", {"d"});
  p->variable("v", {"d"});
  p->coefficient("Sx", {1.0, -0.5}, {"d"});
  p->coefficient("Sy", {0.5, -1.0}, {"d"});
  p->conservation_form("u", "(v[d] - u[d]) - surface(upwind([Sx[d];Sy[d]], u[d]))");
  p->conservation_form("v", "(u[d] - v[d]) - surface(upwind([Sx[d];Sy[d]], v[d]))");
  p->initial("u", [](int32_t c, std::span<const int32_t> idx) { return 1.0 + 0.1 * c + 0.2 * idx[0]; });
  p->initial("v", [](int32_t c, std::span<const int32_t> idx) { return 2.0 - 0.05 * c - 0.3 * idx[0]; });
  for (const std::string var : {"u", "v"}) {
    for (const dsl::BcType type : {dsl::BcType::Flux, dsl::BcType::Value}) {
      const int t = type == dsl::BcType::Flux ? 0 : 1;
      p->boundary(var, t == 0 ? 1 : 3, type, var + (t == 0 ? "_flux" : "_value"),
                  [&probe, var, t](const fvm::BoundaryContext& ctx, std::span<double> out) {
                    std::lock_guard<std::mutex> lock(probe.mutex);
                    probe.threads.insert(std::this_thread::get_id());
                    ++probe.calls[t];
                    if (ctx.field != &ctx.fields->get(var)) {
                      ++probe.wrong[t];
                      std::ranges::fill(out, 0.0);
                      return;
                    }
                    for (size_t dof = 0; dof < out.size(); ++dof)
                      out[dof] = 0.5 * ctx.field->at(ctx.cell, static_cast<int32_t>(dof));
                  });
    }
  }
  return p;
}

}  // namespace finch::test_support
