# Build file of the served-request benchmark binary, served_bench.
#
# It attaches the benchmark to the repository's own CMake project without
# editing any file of it: run.py configures the repository with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# and the deferred call below defines the target in the top-level directory
# once every library target exists. The benchmark therefore compiles with
# exactly the repository's default build type, flags and definitions, and
# links the repository's own libraries. Build it with
#   cmake --build <dir> --target served_bench
include_guard(GLOBAL)

# Deferred-call arguments are expanded at call time, so the directory is
# kept in a variable of the top-level scope instead.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_targets)
  set(dir "${PERFBENCH_DIR}")
  string(TOUPPER "${CMAKE_BUILD_TYPE}" config)
  get_directory_property(options COMPILE_OPTIONS)
  list(JOIN options " " options)
  add_executable(served_bench EXCLUDE_FROM_ALL
    ${dir}/src/main.cpp
    ${dir}/src/run_kv.cpp
    ${dir}/src/run_map.cpp)
  target_link_libraries(served_bench PRIVATE si_servelib si_serve_net)
  set_target_properties(served_bench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
  # Provenance: the build type and the flags the benchmark, and the server
  # code it instantiates, were compiled with travel with every result.
  target_compile_definitions(served_bench PRIVATE
    PB_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PB_CXX_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${config}} ${options}")
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL perfbench_add_targets)
