#ifndef TABLEGAN_TENSOR_WORKSPACE_H_
#define TABLEGAN_TENSOR_WORKSPACE_H_

namespace tablegan {

/// Holds nothing. Its only user is the bench_e2e harness (probes.cc),
/// which still declares one and passes it to Sequential::SetWorkspace.
struct Workspace {};

}  // namespace tablegan

#endif  // TABLEGAN_TENSOR_WORKSPACE_H_
