!$mdh out(y: real[N]) inp(x: real[N + 2]) combine_ops(cc)
do i = 1, N
   y(i) = 0.333 * (x(i) + x(i + 1) + x(i + 2))
end do
