#include "source_cuda.hpp"

#include <sstream>

namespace finch::codegen {

std::string emit_cuda_host_driver(const ir::StepProgram& p, const fvm::BoundaryTable& boundaries) {
  std::ostringstream os;
  os << "// " << p.name << ": interior bulk on device, boundary + post-step on host (§II.B)\n";
  os << "void " << p.name << "_host_step(HostState& h, DeviceState& d, double dt) {\n";
  os << "  // launch GPU kernel asynchronously over the interior cells\n";
  os << "  " << p.name << "<<<grid, block, 0, stream>>>(d.interior_args);\n";
  os << "  // compute boundary contribution on the CPU (user callbacks)\n";
  const std::vector<int> regions = boundaries.regions(p.variable);
  for (int region : regions)
    os << "  compute_boundary_region(h, /*region=*/" << region << ", callback_"
       << boundaries.find(p.variable, region)->callback_name << ");\n";
  if (regions.empty()) os << "  compute_boundary_contribution(h);\n";
  os << "  // synchronize and get " << p.variable << "_new from GPU\n";
  os << "  cudaMemcpyAsync(h." << p.variable << ", d." << p.variable
     << "_new, bytes, cudaMemcpyDeviceToHost, stream);\n";
  os << "  cudaStreamSynchronize(stream);\n";
  os << "  combine_interior_and_boundary(h);\n";
  os << "  // external post-processing (CPU callbacks, e.g. temperature update)\n";
  os << "  run_post_step_callbacks(h);\n";
  os << "  // send CPU-updated variables to the GPU (movement plan)\n";
  os << "  upload_step_variables(h, d);\n";
  os << "}\n\n";
  return os.str();
}

}  // namespace finch::codegen
