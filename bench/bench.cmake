# One binary per paper figure/table; each prints the measured series
# next to the paper's published anchors.
function(dpu_add_bench name)
    add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
    target_link_libraries(${name} PRIVATE dpu_apps dpu_rt dpu_soc dpu_xeon)
    target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
    # build/bench/ holds ONLY runnable binaries, so that
    #   for b in build/bench/*; do $b; done
    # regenerates every figure with no CMake clutter in the glob.
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

dpu_add_bench(bench_fig02_ate)
dpu_add_bench(bench_fig05_power)
dpu_add_bench(bench_fig11_dms_bw)
dpu_add_bench(bench_fig12_gather)
dpu_add_bench(bench_fig13_partition)
dpu_add_bench(bench_fig14_apps)
dpu_add_bench(bench_fig15_filter)
dpu_add_bench(bench_fig16_tpch)
dpu_add_bench(bench_ablation_16nm)
dpu_add_bench(bench_serving)
target_link_libraries(bench_serving PRIVATE dpu_host)
dpu_add_bench(bench_board)
target_link_libraries(bench_board PRIVATE dpu_host dpu_board dpu_topo)
dpu_add_bench(bench_rack)
target_link_libraries(bench_rack PRIVATE dpu_host dpu_board dpu_rack dpu_topo)
dpu_add_bench(bench_simperf)
