# Golden and determinism checks for the greenvis CLI and the figure benches,
# registered as ctest entries under the `golden` and `figures` labels
# (tools/CMakeLists.txt).
#
#   cmake -DCLI=<greenvis> -DCHECK=<energy|serve|campaign|simd> \
#         -DSOURCE_DIR=<repo root> -DWORK_DIR=<scratch dir> \
#         -P tools/golden_check.cmake
#   cmake -DBENCH=<bench binary> -DCHECK=<figure|perf_smoke> \
#         -DSOURCE_DIR=<repo root> -DWORK_DIR=<scratch dir> \
#         -P tools/golden_check.cmake
#
#   energy   `greenvis profile --case 1` equals the committed golden
#            tools/golden/ENERGY_profile_case1.json byte for byte (the
#            profile is a pure function of the virtual timelines; equality
#            with the golden implies its schema tag and energy conservation).
#   serve    `greenvis serve --case=1 --viewers=8 --views=4`, run twice: the
#            two profiles equal each other (determinism) and the committed
#            golden tools/golden/SERVE_profile_case1.json.
#   campaign a small sweep cut short by --limit=3 exits 3 (interrupted);
#            resumed from its journal, its JSON equals that of an
#            uninterrupted reference run, and that run's JSON equals the
#            committed golden tools/golden/CAMPAIGN_small.json (so frame
#            or field digests lost on both sides still fail).
#   simd     `greenvis compare --case 1/2/3` prints byte-identical reports
#            under GREENVIS_SIMD=scalar and GREENVIS_SIMD=auto: the vector
#            kernels are a pure performance substitution, end to end.
#   figure   the bench, run in the empty WORK_DIR, exits 0 and prints
#            exactly tools/golden/figures/<bench name>.txt on stdout (its
#            stderr progress lines are not compared). Every file it writes
#            there is pinned by SHA-256 in tools/golden/figures/<bench
#            name>.sha256 ("<digest>  <path>" lines, sorted by path); a
#            bench that writes no file has no such golden.
#   perf_smoke  `bench_perf_harness --smoke` (no baseline, so no timing
#            gate) exits 0 and prints all four of its metric rows; its one
#            gate is serve's deterministic deliveries-per-render count.
cmake_minimum_required(VERSION 3.20)

if(CHECK MATCHES "^(figure|perf_smoke)$")
  set(required BENCH CHECK SOURCE_DIR WORK_DIR)
else()
  set(required CLI CHECK SOURCE_DIR WORK_DIR)
endif()
foreach(var ${required})
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(golden "${SOURCE_DIR}/tools/golden")

# Run the CLI with ARGN; fail unless it exits with `expected`.
function(greenvis expected)
  execute_process(COMMAND "${CLI}" ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL expected)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR "greenvis ${args}: exit ${rc}, expected ${expected}")
  endif()
endfunction()

# Fail unless files `a` and `b` are byte-identical.
function(same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} differs from ${b}")
  endif()
endfunction()

if(CHECK STREQUAL "energy")
  greenvis(0 profile --case 1 --out=${WORK_DIR}/ENERGY_profile_case1.json)
  same("${WORK_DIR}/ENERGY_profile_case1.json"
       "${golden}/ENERGY_profile_case1.json")
elseif(CHECK STREQUAL "serve")
  set(serve serve --case=1 --viewers=8 --views=4)
  greenvis(0 ${serve} --out=${WORK_DIR}/SERVE_profile_case1.json)
  greenvis(0 ${serve} --out=${WORK_DIR}/SERVE_profile_case1.rerun.json)
  same("${WORK_DIR}/SERVE_profile_case1.json"
       "${WORK_DIR}/SERVE_profile_case1.rerun.json")
  same("${WORK_DIR}/SERVE_profile_case1.json"
       "${golden}/SERVE_profile_case1.json")
elseif(CHECK STREQUAL "campaign")
  set(sweep campaign --pipelines=post,insitu --grids=16,24 --periods=1,2
      --iterations=2 --threads=4)
  greenvis(0 ${sweep} --journal=${WORK_DIR}/ref.journal
           --out=${WORK_DIR}/ref.json)
  greenvis(3 ${sweep} --journal=${WORK_DIR}/resume.journal --limit=3
           --out=${WORK_DIR}/partial.json)
  greenvis(0 ${sweep} --journal=${WORK_DIR}/resume.journal --resume
           --out=${WORK_DIR}/resumed.json)
  same("${WORK_DIR}/ref.json" "${golden}/CAMPAIGN_small.json")
  same("${WORK_DIR}/ref.json" "${WORK_DIR}/resumed.json")
elseif(CHECK STREQUAL "simd")
  foreach(case_no 1 2 3)
    foreach(path scalar auto)
      execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env GREENVIS_SIMD=${path}
                "${CLI}" compare --case ${case_no}
        OUTPUT_FILE "${WORK_DIR}/compare_case${case_no}_${path}.txt"
        RESULT_VARIABLE rc)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR "GREENVIS_SIMD=${path} greenvis compare "
                            "--case ${case_no}: exit ${rc}")
      endif()
    endforeach()
    same("${WORK_DIR}/compare_case${case_no}_scalar.txt"
         "${WORK_DIR}/compare_case${case_no}_auto.txt")
  endforeach()
elseif(CHECK STREQUAL "figure")
  get_filename_component(bench "${BENCH}" NAME)
  execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_FILE "${WORK_DIR}/stdout.txt" ERROR_QUIET
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench}: exit ${rc}")
  endif()
  same("${WORK_DIR}/stdout.txt" "${golden}/figures/${bench}.txt")
  file(GLOB_RECURSE written RELATIVE "${WORK_DIR}" "${WORK_DIR}/*")
  list(REMOVE_ITEM written stdout.txt)
  set(pinned "${golden}/figures/${bench}.sha256")
  if(written OR EXISTS "${pinned}")
    list(SORT written)
    set(digests "")
    foreach(path ${written})
      file(SHA256 "${WORK_DIR}/${path}" digest)
      string(APPEND digests "${digest}  ${path}\n")
    endforeach()
    file(WRITE "${WORK_DIR}/written.sha256" "${digests}")
    same("${WORK_DIR}/written.sha256" "${pinned}")
  endif()
elseif(CHECK STREQUAL "perf_smoke")
  execute_process(COMMAND "${BENCH}" --smoke WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_perf_harness --smoke: exit ${rc}")
  endif()
  foreach(row "heat2d_512 serial (MCUPS)" "codec encode (MB/s)"
          "codec decode (MB/s)" "serve dedup 16v/4 views (x)")
    string(FIND "${out}" "${row}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "bench_perf_harness --smoke: no row '${row}'")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "golden_check: unknown CHECK '${CHECK}'")
endif()
